package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"mmt/internal/sim"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a dispatch slot.
	StateQueued State = "queued"
	// StateRunning: its flight is executing on the pool.
	StateRunning State = "running"
	// StateDone: finished successfully; the outcome is available.
	StateDone State = "done"
	// StateFailed: finished with an error (Error holds it).
	StateFailed State = "failed"
	// StateExpired: missed its queued-deadline before dispatch.
	StateExpired State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// Job is one accepted submission. Distinct submissions of the same task
// get distinct jobs that share a flight (and therefore one simulation);
// every field after the identity block is guarded by Server.mu.
type Job struct {
	id       string
	key      string
	name     string
	spec     sim.TaskSpec
	priority int
	deadline time.Time // zero = none; queued-deadline only
	dedup    bool      // joined an existing flight at submission
	// traceID is the job-scoped correlation id: the client's, or minted
	// from the job id. The runner's spans for the execution join the
	// flight creator's trace.
	traceID string

	submitted time.Time
	started   time.Time
	finished  time.Time
	state     State
	source    string // "simulated" or "cache" once done
	errMsg    string
	outcome   []byte // canonical outcome JSON (sim.MarshalOutcome)

	done chan struct{} // closed exactly once, on any terminal transition
}

// SubmitRequest is the POST /v1/jobs payload.
type SubmitRequest struct {
	// Task is the simulation to run (or join, if an identical one is
	// already queued, running, or cached).
	Task sim.TaskSpec `json:"task"`
	// Priority orders dispatch: higher runs first (default 0). Joining a
	// queued flight raises that flight to the joiner's priority.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds the time from submission to dispatch in
	// milliseconds; a job still queued past it fails with StateExpired
	// (0 = the server's default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// TraceID is an optional client-chosen correlation id for the job
	// (printable, at most 128 characters). Empty lets the server mint
	// one from the job id. The id is echoed in every JobStatus and names
	// the trace of the runner's spans for the job's execution, so one job
	// is filterable in a busy server's Perfetto trace.
	TraceID string `json:"trace_id,omitempty"`
}

// JobStatus is the wire snapshot of a job, returned by POST /v1/jobs and
// GET /v1/jobs/{id} and carried in every SSE event.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Name     string `json:"name"`
	State    State  `json:"state"`
	Priority int    `json:"priority,omitempty"`
	// Dedup marks a submission that joined an already-admitted flight.
	Dedup bool `json:"dedup,omitempty"`
	// TraceID is the job's correlation id (client-chosen or minted).
	TraceID string `json:"trace_id,omitempty"`
	// Source reports how the outcome was produced: "simulated" or
	// "cache" (the persistent result cache). Empty until terminal.
	Source string `json:"source,omitempty"`
	// QueuePosition is the 1-based dispatch rank while queued.
	QueuePosition int `json:"queue_position,omitempty"`
	// WaitMS is submission→dispatch (or →now while queued); RunMS is
	// dispatch→finish (or →now while running).
	WaitMS int64  `json:"wait_ms"`
	RunMS  int64  `json:"run_ms,omitempty"`
	Error  string `json:"error,omitempty"`
	// Outcome is the canonical sim outcome encoding, present once done.
	Outcome json.RawMessage `json:"outcome,omitempty"`
}

// DecodeOutcome decodes the status's outcome blob.
func (js *JobStatus) DecodeOutcome() (*sim.Outcome, error) {
	if len(js.Outcome) == 0 {
		return nil, fmt.Errorf("serve: job %s has no outcome (state %s)", js.ID, js.State)
	}
	return sim.UnmarshalOutcome(js.Outcome)
}

// newJobLocked creates and registers a job (caller holds mu). An empty
// traceID mints one from the job id.
func (s *Server) newJobLocked(task sim.Task, spec sim.TaskSpec, key string, prio int, deadline time.Time, dedup bool, traceID string, now time.Time) *Job {
	s.seq++
	j := &Job{
		id:        fmt.Sprintf("j%06d-%.8s", s.seq, key),
		key:       key,
		name:      task.Name(),
		spec:      spec,
		priority:  prio,
		deadline:  deadline,
		dedup:     dedup,
		traceID:   traceID,
		submitted: now,
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	if j.traceID == "" {
		j.traceID = "t-" + j.id
	}
	s.jobs[j.id] = j
	return j
}

// snapshotLocked renders a job's wire status (caller holds mu). It also
// performs the lazy queued-deadline check, so an expired job reports
// StateExpired the first time anyone looks at it.
func (s *Server) snapshotLocked(j *Job, now time.Time) JobStatus {
	if j.state == StateQueued && !j.deadline.IsZero() && now.After(j.deadline) {
		s.expireLocked(j, now)
	}
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		Name:     j.name,
		State:    j.state,
		Priority: j.priority,
		Dedup:    j.dedup,
		TraceID:  j.traceID,
		Source:   j.source,
		Error:    j.errMsg,
		Outcome:  j.outcome,
	}
	switch {
	case j.state == StateQueued:
		st.WaitMS = now.Sub(j.submitted).Milliseconds()
		st.QueuePosition = s.queuePositionLocked(j.key)
	case j.state == StateRunning:
		st.WaitMS = j.started.Sub(j.submitted).Milliseconds()
		st.RunMS = now.Sub(j.started).Milliseconds()
	default: // terminal
		end := j.started
		if end.IsZero() {
			end = j.finished
		}
		st.WaitMS = end.Sub(j.submitted).Milliseconds()
		if !j.started.IsZero() {
			st.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return st
}

// expireLocked fails a queued job that missed its deadline (caller holds
// mu). Its flight stays admitted — other joiners may still be live; a
// flight whose members all expired is released at dispatch time.
func (s *Server) expireLocked(j *Job, now time.Time) {
	j.state = StateExpired
	j.errMsg = fmt.Sprintf("deadline exceeded before dispatch (queued %s)", now.Sub(j.submitted).Round(time.Millisecond))
	j.finished = now
	s.met.expired.Inc()
	close(j.done)
}
