// Package serve turns the experiment subsystem into a long-running
// simulation-as-a-service daemon. It accepts simulation jobs over HTTP as
// declarative sim.TaskSpec payloads and layers real serving machinery on
// the internal/runner pool:
//
//   - a bounded admission queue with 429 + Retry-After backpressure, so a
//     traffic burst degrades into polite retries instead of unbounded
//     memory growth;
//   - single-flight deduplication keyed by the simulation's content-
//     addressed cache key — N concurrent identical submissions run one
//     simulation and fan the outcome out to every waiter, the MMT "fetch
//     once, share the stream" idea applied at the serving layer (the
//     persistent result cache then extends the sharing across restarts);
//   - per-job priorities (higher dispatches first) and queued-deadlines
//     (a job not dispatched by its deadline fails fast instead of
//     occupying the queue);
//   - Server-Sent Events streaming of job progress and the final outcome;
//   - graceful drain: stop admitting, finish in-flight work, then close.
//
// The HTTP surface:
//
//	POST /v1/jobs             submit a job (SubmitRequest -> JobStatus, 202)
//	GET  /v1/jobs/{id}        poll a job (JobStatus; outcome when done)
//	GET  /v1/jobs/{id}/stream SSE: state / progress events, final outcome
//	GET  /v1/healthz          liveness; 503 while draining
//	GET  /v1/stats            serving counters, queue depth, latency quantiles
//
// internal/serve/client is the Go client; cmd/mmtserved and cmd/mmtload
// are the daemon and the load generator.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/runner"
	"mmt/internal/sim"
)

// Options configures a Server. The diagnostics surface, GET /v1/debug/
// with the flight ring, is the embedding daemon's to mount in front of
// the Server. A flight ring built over Tracer holds a job's spans, one
// layered under Log its log lines, and Runner.Flight its worker panics.
type Options struct {
	// Runner configures the underlying pool. The server chains its own
	// completion bookkeeping onto Runner.OnComplete (a caller-provided
	// hook still runs) and shares Metrics with the pool when Runner's is
	// unset.
	Runner runner.Options
	// MaxQueue bounds flights admitted but not yet dispatched; beyond it
	// submissions get 429 + Retry-After (default 64). Deduplicated
	// submissions never consume queue slots.
	MaxQueue int
	// Dispatchers bounds concurrently dispatched flights (default: the
	// pool's worker count) — the queue drains in priority order this many
	// at a time.
	Dispatchers int
	// DefaultDeadline is applied to submissions that carry none: the job
	// must be dispatched within it or it fails fast (0 = no deadline).
	DefaultDeadline time.Duration
	// HeartbeatEvery is the SSE progress cadence (default 1s).
	HeartbeatEvery time.Duration
	// Resolve maps a wire TaskSpec to an executable task (default
	// sim.TaskSpec.Task). Tests and embedders can interpose validation or
	// synthetic tasks here.
	Resolve func(sim.TaskSpec) (sim.Task, error)
	// Precheck statically analyzes each submitted task's program
	// (absint.CheckApp, the gate behind mmtsim -precheck) and rejects
	// jobs whose programs carry error-severity findings with 400 before
	// they reach the queue.
	Precheck bool
	// Metrics holds the serving counters, queue depth gauge and latency
	// histograms, and is served at GET /metrics. Nil means a private
	// registry (and no /metrics route); /v1/stats counts either way.
	Metrics *obs.Registry
	// Tracer, when non-nil, records distributed spans for every hop of a
	// job's life (admission, queueing, dedup joins, execution) and serves
	// them at GET /v1/spans. It is shared with the runner pool unless the
	// pool brings its own. Span trace ids unify with job trace ids: an
	// incoming traceparent header wins, then the submission's trace_id,
	// then a minted id stamped back into the job.
	Tracer *span.Tracer
	// Log, when non-nil, receives structured request-scoped log lines
	// stamped with trace/span ids. Nil discards them.
	Log *slog.Logger
}

// Server is the job server. It implements http.Handler; the caller owns
// the listener.
type Server struct {
	opts  Options
	pool  *runner.Pool
	mux   *http.ServeMux
	met   *metrics
	log   *slog.Logger
	start time.Time

	// mu guards the fields below and orders the met counts, so a
	// /v1/stats snapshot is consistent.
	mu          sync.Mutex
	cond        *sync.Cond // signals dispatchers when the queue grows or the server closes
	jobs        map[string]*Job
	flights     map[string]*flight
	queue       flightQueue
	completions map[string]runner.Completion
	admitted    int // flights admitted and not yet finished
	seq         uint64
	draining    bool
	closed      bool
	runSum      time.Duration // executed-flight wall clock, for Retry-After estimation
	runN        int

	dispatchers sync.WaitGroup
}

// New starts a server and its dispatcher goroutines. ctx is the pool's
// hard-abort context: canceling it fails in-flight jobs (used when a
// drain deadline expires); prefer Drain + Close for an orderly stop.
func New(ctx context.Context, opts Options) (*Server, error) {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	if opts.Resolve == nil {
		opts.Resolve = func(s sim.TaskSpec) (sim.Task, error) { return s.Task() }
	}
	if opts.Metrics != nil && opts.Runner.Metrics == nil {
		opts.Runner.Metrics = opts.Metrics
	}
	if opts.Tracer != nil && opts.Runner.Tracer == nil {
		opts.Runner.Tracer = opts.Tracer
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	s := &Server{
		opts:        opts,
		log:         opts.Log,
		start:       time.Now(),
		met:         newMetrics(opts.Metrics),
		jobs:        make(map[string]*Job),
		flights:     make(map[string]*flight),
		completions: make(map[string]runner.Completion),
	}
	s.cond = sync.NewCond(&s.mu)

	userHook := opts.Runner.OnComplete
	opts.Runner.OnComplete = func(c runner.Completion) {
		s.noteCompletion(c)
		if userHook != nil {
			userHook(c)
		}
	}
	pool, err := runner.New(ctx, opts.Runner)
	if err != nil {
		return nil, err
	}
	s.pool = pool

	if s.opts.Dispatchers <= 0 {
		s.opts.Dispatchers = pool.Summary().Workers
	}
	s.mux = s.routes()
	for i := 0; i < s.opts.Dispatchers; i++ {
		s.dispatchers.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// ServeHTTP serves the API, observing per-request latency. Requests that
// arrive with a trace context leave their trace id as the latency
// bucket's exemplar, so a spiked bucket names a concrete trace.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	s.met.reqLatency.ObserveWithExemplar(time.Since(start), span.Extract(r.Header).TraceID)
}

// Pool exposes the underlying runner pool (its Summary feeds /v1/stats).
func (s *Server) Pool() *runner.Pool { return s.pool }

// noteCompletion records how the pool resolved a key. The pool fires the
// hook before Do returns, so completeFlight's lookup always finds it.
func (s *Server) noteCompletion(c runner.Completion) {
	s.mu.Lock()
	s.completions[c.Key] = c
	s.mu.Unlock()
}

// takeCompletion consumes a recorded completion, bounding the map.
func (s *Server) takeCompletion(key string) (runner.Completion, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.completions[key]
	if ok {
		delete(s.completions, key)
	}
	return c, ok
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission (submissions get 503, healthz flips to draining)
// and waits until every admitted job has finished or ctx expires. Safe to
// call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for {
		s.mu.Lock()
		n := s.admitted
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %d jobs still in flight: %w", n, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close stops the dispatchers and the pool. Queued flights that were
// never dispatched fail with a shutdown error; in-flight simulations are
// waited for (abort them by canceling the New ctx first). Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	var stranded []*flight
	for len(s.queue) > 0 {
		stranded = append(stranded, s.popFlightLocked())
	}
	now := time.Now()
	for _, f := range stranded {
		s.resolveFlightLocked(f, nil, errShutdown, "", now)
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.dispatchers.Wait()
	s.pool.Close()
	return nil
}

var errShutdown = fmt.Errorf("serve: server shutting down before dispatch")
