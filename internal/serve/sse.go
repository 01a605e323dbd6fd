package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// handleStream is GET /v1/jobs/{id}/stream: a Server-Sent Events feed of
// the job's life. Events:
//
//	state    initial snapshot on connect
//	progress heartbeat snapshots while queued/running (HeartbeatEvery)
//	outcome  final snapshot with the result (or error), then EOF
//
// Every event's data is a JobStatus JSON object.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeHTTPError(w, &httpError{status: http.StatusNotFound, msg: "no such job: " + id})
		return
	}
	st := s.snapshotLocked(j, time.Now())
	s.met.streams.Add(1)
	s.mu.Unlock()

	flusher, ok := w.(http.Flusher)
	if !ok {
		s.streamClosed()
		writeHTTPError(w, &httpError{status: http.StatusInternalServerError, msg: "response writer cannot stream"})
		return
	}
	defer s.streamClosed()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(event string, v JobStatus) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	if st.State.Terminal() {
		send(eventOutcome, st) //nolint:errcheck // terminating anyway
		return
	}
	if err := send(eventState, st); err != nil {
		return
	}

	ticker := time.NewTicker(s.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			s.mu.Lock()
			final := s.snapshotLocked(j, time.Now())
			s.mu.Unlock()
			send(eventOutcome, final) //nolint:errcheck // terminating anyway
			return
		case <-ticker.C:
			s.mu.Lock()
			snap := s.snapshotLocked(j, time.Now())
			s.mu.Unlock()
			if snap.State.Terminal() {
				// Lazy deadline expiry can turn the job terminal on this
				// snapshot itself; j.done is closed, finish on that arm.
				continue
			}
			if err := send(eventProgress, snap); err != nil {
				return
			}
		}
	}
}

// SSE event names.
const (
	eventState    = "state"
	eventProgress = "progress"
	eventOutcome  = "outcome"
)

func (s *Server) streamClosed() {
	s.mu.Lock()
	s.met.streams.Add(-1)
	s.mu.Unlock()
}
