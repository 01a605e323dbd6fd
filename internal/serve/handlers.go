package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"mmt/internal/obs/span"
)

// httpError is a handler failure carrying its status code and, for 429,
// the Retry-After hint.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMS mirrors the Retry-After header for clients that prefer
	// the body.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeHTTPError(w http.ResponseWriter, e *httpError) {
	body := errorBody{Error: e.msg}
	if e.retryAfter > 0 {
		secs := int64(math.Ceil(e.retryAfter.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		body.RetryAfterMS = e.retryAfter.Milliseconds()
	}
	writeJSON(w, e.status, body)
}

// routes builds the API mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.opts.Tracer != nil {
		mux.Handle("GET /v1/spans", s.opts.Tracer)
	}
	if s.opts.Metrics != nil {
		mux.Handle("GET /metrics", s.opts.Metrics)
	}
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeHTTPError(w, badRequest("decoding request: %v", err))
		return
	}
	// Unify the span trace with the job's correlation id: an incoming
	// traceparent header wins, then the body's trace_id; with a tracer and
	// neither, mint one and stamp it back into the job so mmttrace can
	// find it by the id the client sees.
	parent := span.Extract(r.Header)
	if parent.TraceID == "" {
		parent.TraceID = req.TraceID
	}
	sp := s.opts.Tracer.Start(parent, "serve.submit")
	if req.TraceID == "" {
		req.TraceID = sp.TraceID()
	}
	st, herr := s.submit(req, sp.Context())
	if herr != nil {
		sp.SetAttr("error", herr.msg)
		sp.End()
		s.log.Warn("submit rejected", "status", herr.status, "error", herr.msg,
			"trace", req.TraceID, "span", sp.Context().SpanID)
		writeHTTPError(w, herr)
		return
	}
	sp.SetAttr("job", st.ID)
	if st.Dedup {
		sp.SetAttr("dedup", "true")
	}
	sp.End()
	s.log.Info("job submitted", "job", st.ID, "state", st.State, "dedup", st.Dedup,
		"priority", st.Priority, "trace", st.TraceID, "span", sp.Context().SpanID)
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeHTTPError(w, &httpError{status: http.StatusNotFound, msg: "no such job: " + id})
		return
	}
	st := s.snapshotLocked(j, time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// Health is the GET /v1/healthz body.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	UptimeMS int64  `json:"uptime_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", UptimeMS: time.Since(s.start).Milliseconds()}
	status := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeMS   int64 `json:"uptime_ms"`
	QueueDepth int   `json:"queue_depth"`
	Admitted   int   `json:"admitted"` // flights admitted and not yet finished

	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Rejected  uint64 `json:"rejected"`
	Expired   uint64 `json:"expired"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Simulated uint64 `json:"simulated"`
	FromCache uint64 `json:"from_cache"`
	Streams   int    `json:"streams"`

	// Latency quantiles in milliseconds, from the serving histograms.
	RequestP50MS float64 `json:"request_p50_ms"`
	RequestP99MS float64 `json:"request_p99_ms"`
	JobP50MS     float64 `json:"job_p50_ms"`
	JobP99MS     float64 `json:"job_p99_ms"`

	// Pool is the underlying runner pool summary.
	Pool any `json:"pool"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.met
	s.mu.Lock()
	st := Stats{
		UptimeMS:   time.Since(s.start).Milliseconds(),
		QueueDepth: len(s.queue),
		Admitted:   s.admitted,
		Submitted:  m.submitted.Value(),
		Deduped:    m.deduped.Value(),
		Rejected:   m.rejected.Value(),
		Expired:    m.expired.Value(),
		Completed:  m.completed.Value(),
		Failed:     m.failed.Value(),
		Simulated:  m.simulated.Value(),
		FromCache:  m.cacheServed.Value(),
		Streams:    int(m.streams.Value()),
	}
	s.mu.Unlock()
	st.RequestP50MS = m.reqLatency.Quantile(0.5) * 1e3
	st.RequestP99MS = m.reqLatency.Quantile(0.99) * 1e3
	st.JobP50MS = m.jobLatency.Quantile(0.5) * 1e3
	st.JobP99MS = m.jobLatency.Quantile(0.99) * 1e3
	st.Pool = s.pool.Summary()
	writeJSON(w, http.StatusOK, st)
}
