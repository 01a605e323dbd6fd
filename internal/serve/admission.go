package serve

import (
	"container/heap"
	"fmt"
	"math"
	"net/http"
	"time"

	"mmt/internal/obs/span"
	"mmt/internal/sim"
	"mmt/internal/static/absint"
)

// maxTraceIDLen bounds client-chosen correlation ids.
const maxTraceIDLen = 128

// validateTraceID rejects ids that would corrupt logs or trace files:
// over-long strings and control or non-ASCII characters.
func validateTraceID(id string) error {
	if len(id) > maxTraceIDLen {
		return fmt.Errorf("trace_id longer than %d bytes", maxTraceIDLen)
	}
	for _, r := range id {
		if r < 0x21 || r > 0x7e {
			return fmt.Errorf("trace_id contains non-printable or non-ASCII character %q", r)
		}
	}
	return nil
}

// flight is one admitted simulation: the single execution shared by every
// job whose task resolved to the same content-addressed key. A flight in
// s.flights is joinable (queued or running); it leaves the map when it
// resolves, after which identical submissions admit a fresh flight that
// the pool then serves from its caches.
type flight struct {
	key      string
	task     sim.Task
	priority int    // max over its jobs'
	seq      uint64 // admission order, the priority tiebreak
	index    int    // heap position; -1 once dispatched
	running  bool
	jobs     []*Job
	// span covers admission to resolution in the creator's trace; dedup
	// joiners link to it from their own traces. queueSpan covers the
	// admission-to-dispatch wait. Both are nil without a tracer.
	span      *span.Span
	queueSpan *span.Span
}

// flightQueue is a max-heap: higher priority first, then earlier
// admission.
type flightQueue []*flight

func (q flightQueue) Len() int { return len(q) }
func (q flightQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q flightQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *flightQueue) Push(x any) {
	f := x.(*flight)
	f.index = len(*q)
	*q = append(*q, f)
}
func (q *flightQueue) Pop() any {
	old := *q
	f := old[len(old)-1]
	old[len(old)-1] = nil
	f.index = -1
	*q = old[:len(old)-1]
	return f
}

// popFlightLocked removes the next flight to dispatch (caller holds mu).
func (s *Server) popFlightLocked() *flight {
	f := heap.Pop(&s.queue).(*flight)
	s.met.queueDepth.Set(int64(len(s.queue)))
	return f
}

// queuePositionLocked is a job's 1-based dispatch rank (caller holds mu).
func (s *Server) queuePositionLocked(key string) int {
	f, ok := s.flights[key]
	if !ok || f.index < 0 {
		return 0
	}
	rank := 1
	for _, g := range s.queue {
		if g != f && (g.priority > f.priority || (g.priority == f.priority && g.seq < f.seq)) {
			rank++
		}
	}
	return rank
}

// submit admits, deduplicates, or rejects one submission. parent is the
// handler's span context (zero without a tracer). A *httpError return
// carries the status code (and Retry-After for 429).
func (s *Server) submit(req SubmitRequest, parent span.SpanContext) (JobStatus, *httpError) {
	if err := validateTraceID(req.TraceID); err != nil {
		return JobStatus{}, badRequest("%v", err)
	}
	task, err := s.opts.Resolve(req.Task)
	if err != nil {
		return JobStatus{}, badRequest("resolving task: %v", err)
	}
	// Tasks built without a workload source (custom Build hooks from an
	// embedder's Resolve) are not checkable and pass.
	if s.opts.Precheck && task.App.Source != "" {
		if err := absint.CheckApp(task.App); err != nil {
			return JobStatus{}, badRequest("precheck: %v", err)
		}
	}
	key, err := task.Key()
	if err != nil {
		return JobStatus{}, badRequest("keying task: %v", err)
	}
	now := time.Now()
	var deadline time.Time
	switch {
	case req.DeadlineMS > 0:
		deadline = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case s.opts.DefaultDeadline > 0:
		deadline = now.Add(s.opts.DefaultDeadline)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return JobStatus{}, &httpError{status: http.StatusServiceUnavailable,
			msg: "server is draining; not accepting new jobs"}
	}
	s.met.submitted.Inc()

	// Single-flight dedup: identical work in flight absorbs the
	// submission without consuming a queue slot.
	if f, ok := s.flights[key]; ok {
		j := s.newJobLocked(task, req.Task, key, req.Priority, deadline, true, req.TraceID, now)
		f.jobs = append(f.jobs, j)
		// The joiner's trace records a serve.join span linked to the
		// creator's flight span: mmttrace chases that edge to show which
		// execution this submission actually rode.
		if jsp := s.opts.Tracer.Start(parent, "serve.join"); jsp != nil {
			jsp.SetAttr("job", j.id)
			jsp.SetAttr("creator_trace", f.task.TraceID)
			jsp.Link(f.span.Context())
			jsp.End()
		}
		if j.priority > f.priority {
			f.priority = j.priority
			if f.index >= 0 {
				heap.Fix(&s.queue, f.index)
			}
		}
		if f.running {
			j.state = StateRunning
			j.started = now
		}
		s.met.deduped.Inc()
		return s.snapshotLocked(j, now), nil
	}

	if len(s.queue) >= s.opts.MaxQueue {
		s.met.rejected.Inc()
		return JobStatus{}, &httpError{
			status:     http.StatusTooManyRequests,
			msg:        "admission queue full",
			retryAfter: s.retryAfterLocked(),
		}
	}

	j := s.newJobLocked(task, req.Task, key, req.Priority, deadline, false, req.TraceID, now)
	s.seq++
	// The flight's execution is observed under its creator's correlation
	// id: the runner's spans join that trace, so dedup joiners share the
	// creator's timeline (they share its simulation).
	task.TraceID = j.traceID
	f := &flight{key: key, task: task, priority: req.Priority, seq: s.seq, jobs: []*Job{j}}
	f.span = s.opts.Tracer.Start(parent, "serve.flight")
	f.span.SetAttr("job", j.id)
	f.queueSpan = s.opts.Tracer.Start(f.span.Context(), "serve.queue")
	s.flights[key] = f
	heap.Push(&s.queue, f)
	s.admitted++
	s.met.queueDepth.Set(int64(len(s.queue)))
	s.cond.Signal()
	return s.snapshotLocked(j, now), nil
}

// retryAfterLocked estimates when a queue slot will free: queue length
// over dispatch parallelism times the average executed-flight duration,
// floored at a second and capped at a minute (caller holds mu).
func (s *Server) retryAfterLocked() time.Duration {
	est := time.Second
	if s.runN > 0 {
		avg := s.runSum / time.Duration(s.runN)
		waves := math.Ceil(float64(len(s.queue)) / float64(s.opts.Dispatchers))
		if d := time.Duration(waves) * avg; d > est {
			est = d
		}
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// dispatch is one dispatcher goroutine: it drains the flight queue in
// priority order, runs each flight on the pool, and fans the outcome out
// to the flight's jobs.
func (s *Server) dispatch() {
	defer s.dispatchers.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		f := s.popFlightLocked()
		f.running = true
		f.queueSpan.End()
		now := time.Now()
		live := 0
		for _, j := range f.jobs {
			if j.state != StateQueued {
				continue // expired via a lazy snapshot check
			}
			if !j.deadline.IsZero() && now.After(j.deadline) {
				s.expireLocked(j, now)
				continue
			}
			j.state = StateRunning
			j.started = now
			live++
		}
		if live == 0 {
			// Every member expired in the queue: release the admission
			// slot without running anything.
			s.resolveFlightLocked(f, nil, nil, "", now)
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()

		s.met.running.Add(1)
		// The execution span parents everything the runner and simulator
		// record for this flight; its context rides the task over the
		// pool boundary in serialized traceparent form.
		esp := s.opts.Tracer.Start(f.span.Context(), "serve.exec")
		f.task.SpanParent = esp.Context().Traceparent()
		started := time.Now()
		out, err := s.pool.Do(f.task)
		dur := time.Since(started)
		s.met.running.Add(-1)

		// The pool fires OnComplete before Do returns, so if this dispatch
		// made the pool finalize the key, its completion is recorded. No
		// completion means the pool's in-memory memo answered — an earlier
		// flight already finalized the key — which is a cache hit too.
		comp, haveComp := s.takeCompletion(f.key)
		source := "cache"
		if haveComp && !comp.FromCache {
			source = "simulated"
		}
		esp.SetAttr("source", source)
		if err != nil {
			esp.SetAttr("error", err.Error())
		}
		esp.End()
		var raw []byte
		if err == nil {
			raw, err = sim.MarshalOutcome(out)
		}

		s.mu.Lock()
		if err == nil {
			if source == "cache" {
				s.met.cacheServed.Inc()
			} else {
				s.met.simulated.Inc()
				s.runSum += dur
				s.runN++
			}
		}
		s.resolveFlightLocked(f, raw, err, source, time.Now())
		s.mu.Unlock()
	}
}

// resolveFlightLocked finishes a flight: every non-expired member job
// turns terminal and its waiters wake (caller holds mu).
func (s *Server) resolveFlightLocked(f *flight, raw []byte, err error, source string, now time.Time) {
	delete(s.flights, f.key)
	s.admitted--
	f.queueSpan.End() // idempotent; covers never-dispatched flights
	if source != "" {
		f.span.SetAttr("source", source)
	}
	if err != nil {
		f.span.SetAttr("error", err.Error())
	}
	f.span.End()
	for _, j := range f.jobs {
		if j.state.Terminal() {
			continue
		}
		j.finished = now
		if err != nil {
			j.state = StateFailed
			j.errMsg = err.Error()
			s.met.failed.Inc()
		} else {
			j.state = StateDone
			j.outcome = raw
			j.source = source
			s.met.completed.Inc()
		}
		s.met.jobLatency.ObserveWithExemplar(now.Sub(j.submitted), j.traceID)
		close(j.done)
	}
}
