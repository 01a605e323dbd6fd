package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Nodes is the backend membership (see ParseNodes). Required.
	Nodes []Node
	// ProbeEvery is the health/stats probe cadence (default 1s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe or stats fan-out request (default 2s).
	ProbeTimeout time.Duration
	// PlacementTTL bounds how long a key's placement stays pinned to the
	// node that received it (default 5m). Pinning keeps every submission
	// of a live key on one node so single-flight dedup holds fleet-wide
	// even when a key is stolen off its busy owner; the TTL lets cold keys
	// re-home.
	PlacementTTL time.Duration
	// Resolve maps a wire TaskSpec to an executable task for key
	// computation (default sim.TaskSpec.Task). Tests interpose here.
	Resolve func(sim.TaskSpec) (sim.Task, error)
	// Metrics holds the mmt_cluster_* instruments and is served at GET
	// /metrics. Nil means a private registry (and no /metrics route);
	// /v1/cluster counts either way.
	Metrics *obs.Registry
	// Tracer, when non-nil, records the router's hop spans (submit,
	// per-try route/forward, job proxying) and serves them at GET
	// /v1/spans. The router also pins the distributed trace id onto every
	// submission it forwards (minting one when the client brought none),
	// so re-routed and work-stolen jobs keep one trace id end-to-end.
	Tracer *span.Tracer
	// Log, when non-nil, receives structured request-scoped log lines
	// stamped with trace/span ids. Nil discards them.
	Log *slog.Logger
}

// nodeState is a backend's probed lifecycle position.
type nodeState int

const (
	stateUnknown nodeState = iota
	stateHealthy
	stateDraining
	stateDown
)

func (s nodeState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	default:
		return "unknown"
	}
}

// backend is one ring node plus its probed state, its live load and
// per-node counters.
type backend struct {
	node  Node
	cli   *client.Client         // submit forwarding; retries stay with the end client
	proxy *httputil.ReverseProxy // GET /v1/jobs/{id} and its SSE stream

	mu      sync.Mutex
	state   nodeState
	stats   serve.Stats
	workers int // the node's runner workers, from its last stats (0 = unknown)
	// outstanding counts the jobs forwarded here that the router has not
	// yet seen finish: up when a submit is accepted unfinished, down when
	// the job's proxied stream ends, and lowered by each probe to the
	// node's own count of unfinished flights.
	outstanding int
	lastErr     string
	routed      uint64
	stolen      uint64
}

// snapshotState reports the node's state and its free workers; a node
// whose worker count is unknown never has one free.
func (b *backend) snapshotState() (nodeState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.workers - b.outstanding
}

// setStats records a stats snapshot, including the node's worker count
// from its pool summary.
func (b *backend) setStats(s serve.Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = s
	if pool, ok := s.Pool.(map[string]any); ok {
		if w, ok := pool["Workers"].(float64); ok {
			b.workers = int(w)
		}
	}
}

func (b *backend) markDown(err error) {
	b.mu.Lock()
	b.state = stateDown
	b.lastErr = err.Error()
	b.mu.Unlock()
}

// placement pins a key to the backend that received its first submission.
type placement struct {
	b  *backend
	at time.Time
}

// jobRoute remembers where a job landed and under which trace id, so
// later GET/SSE proxying joins the job's trace.
type jobRoute struct {
	b     *backend
	trace string
	// counted marks a job still in its node's outstanding count; the
	// first stream end that sees it set takes the job out.
	counted bool
}

// Router is the fleet coordinator: an http.Handler speaking the mmtserved
// /v1 job API that consistent-hashes each submission's task cache key
// onto the backend ring. Construct with NewRouter; Close stops the
// probers.
type Router struct {
	opts  RouterOptions
	ring  *Ring
	mux   *http.ServeMux
	hc    *http.Client
	met   *routerMetrics
	log   *slog.Logger
	start time.Time
	// proxyBufs lends every backend proxy its copy buffers, so a proxied
	// response reuses one instead of allocating its own 32 KB.
	proxyBufs bufferPool

	// mu guards the fields below and orders the routing counts in met, so
	// a /v1/cluster snapshot is consistent.
	mu         sync.Mutex
	backends   []*backend
	byName     map[string]*backend
	jobs       map[string]jobRoute
	placements map[string]placement

	stop      chan struct{}
	probers   sync.WaitGroup
	closeOnce sync.Once
}

// bufferPool is an httputil.BufferPool over a sync.Pool of 32 KB
// buffers, the size a ReverseProxy copies with by default.
type bufferPool struct{ p sync.Pool }

func (b *bufferPool) Get() []byte {
	if buf, ok := b.p.Get().(*[]byte); ok {
		return *buf
	}
	return make([]byte, 32<<10)
}

func (b *bufferPool) Put(buf []byte) { b.p.Put(&buf) }

// NewRouter builds the router, probes every backend once so routing
// decisions start informed, and launches the probe loop.
func NewRouter(opts RouterOptions) (*Router, error) {
	ring, err := NewRing(opts.Nodes)
	if err != nil {
		return nil, err
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.PlacementTTL <= 0 {
		opts.PlacementTTL = 5 * time.Minute
	}
	if opts.Resolve == nil {
		opts.Resolve = func(s sim.TaskSpec) (sim.Task, error) { return s.Task() }
	}
	rt := &Router{
		opts:       opts,
		ring:       ring,
		hc:         &http.Client{}, // no global timeout: SSE proxying streams indefinitely
		met:        newRouterMetrics(opts.Metrics),
		start:      time.Now(),
		byName:     make(map[string]*backend),
		jobs:       make(map[string]jobRoute),
		placements: make(map[string]placement),
		stop:       make(chan struct{}),
	}
	rt.log = opts.Log
	if rt.log == nil {
		rt.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, n := range ring.Nodes() {
		target, err := url.Parse(n.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %s: %w", n.Name, err)
		}
		b := &backend{node: n}
		b.cli = client.New(n.URL, rt.hc)
		b.cli.Retries = 0 // retry policy belongs to the end client
		b.proxy = httputil.NewSingleHostReverseProxy(target)
		b.proxy.BufferPool = &rt.proxyBufs
		b.proxy.FlushInterval = -1 // SSE: flush every chunk
		b.proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			rt.countError()
			writeError(w, http.StatusBadGateway, 0, "backend %s: %v", b.node.Name, err)
		}
		rt.backends = append(rt.backends, b)
		rt.byName[n.Name] = b
	}
	rt.mux = rt.routes()
	rt.probeAll()
	rt.probers.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the probe loop. In-flight proxied requests finish on their
// own; the router holds no other resources.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stop)
		rt.probers.Wait()
	})
}

// Owner returns the ring owner for a task cache key (ignoring health and
// placements) — introspection for tests and operators.
func (rt *Router) Owner(key string) Node { return rt.ring.Owner(key) }

func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", rt.handleStream)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	if rt.opts.Tracer != nil {
		mux.Handle("GET /v1/spans", rt.opts.Tracer)
	}
	if rt.opts.Metrics != nil {
		mux.Handle("GET /metrics", rt.opts.Metrics)
	}
	return mux
}

// ServeHTTP serves the fleet API.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

func (rt *Router) countError() {
	rt.mu.Lock()
	rt.met.errors.Inc()
	rt.mu.Unlock()
}

// routeInfo describes how a placement was chosen.
type routeInfo struct {
	pinned   bool // an existing live placement was reused
	rerouted bool // the ring owner was skipped (draining or down)
	stolen   bool // diverted off a busy owner to a node with a free worker
}

// place picks the backend for a key: a pinned live placement if one
// exists, else the first healthy node clockwise from the ring owner —
// unless every worker there is taken, in which case the healthy node with
// the most free workers takes the key, the first in ring order on a tie.
// The new placement is recorded so subsequent submissions of the same key
// follow it.
func (rt *Router) place(key string) (*backend, routeInfo, error) {
	now := time.Now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if pl, ok := rt.placements[key]; ok {
		if st, _ := pl.b.snapshotState(); st == stateHealthy && now.Sub(pl.at) < rt.opts.PlacementTTL {
			return pl.b, routeInfo{pinned: true}, nil
		}
		delete(rt.placements, key)
	}
	var info routeInfo
	var owner *backend
	var rest []Node // ring order after the owner
	succ := rt.ring.Successors(key, len(rt.backends))
	for i, n := range succ {
		b := rt.byName[n.Name]
		if st, _ := b.snapshotState(); st == stateHealthy {
			owner, rest = b, succ[i+1:]
			break
		}
		info.rerouted = true
	}
	if owner == nil {
		return nil, info, errors.New("no healthy backends")
	}
	chosen := owner
	if _, free := owner.snapshotState(); free <= 0 {
		// The owner is busy: a node with a free worker runs the key now
		// instead of queueing it. The placement pin keeps later
		// submissions of the key on the thief, so fleet-wide dedup still
		// holds.
		most := 0
		for _, n := range rest {
			b := rt.byName[n.Name]
			if st, free := b.snapshotState(); st == stateHealthy && free > most {
				chosen, most = b, free
			}
		}
		info.stolen = chosen != owner
	}
	rt.placements[key] = placement{b: chosen, at: now}
	rt.met.placements.Set(int64(len(rt.placements)))
	return chosen, info, nil
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "decoding request: %v", err)
		return
	}
	task, err := rt.opts.Resolve(req.Task)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, "resolving task: %v", err)
		return
	}
	key, err := task.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, "keying task: %v", err)
		return
	}

	// Pin the distributed trace id here, before any placement decision:
	// an incoming traceparent wins, then the body's trace_id, then a
	// minted id. Every forward — including re-routes after a transport
	// failure and work-steals — then carries the same id end-to-end.
	parent := span.Extract(r.Header)
	if parent.TraceID == "" {
		parent.TraceID = req.TraceID
	}
	sub := rt.opts.Tracer.Start(parent, "router.submit")
	defer sub.End()
	if req.TraceID == "" {
		req.TraceID = sub.TraceID()
	}
	if req.TraceID == "" { // tracer disabled: still pin one id per submission
		req.TraceID = span.NewTraceID()
	}

	start := time.Now()
	// Walk candidates until one accepts: a backend that fails at the
	// transport level is marked down (the prober will rehabilitate it)
	// and the key re-places on the next healthy node.
	for tries := 0; tries < len(rt.backends); tries++ {
		rsp := rt.opts.Tracer.Start(sub.Context(), "router.route")
		b, info, perr := rt.place(key)
		if perr != nil {
			rsp.SetAttr("error", perr.Error())
			rsp.End()
			sub.SetAttr("error", perr.Error())
			writeError(w, http.StatusServiceUnavailable, 0, "%v", perr)
			return
		}
		rsp.SetAttr("node", b.node.Name)
		if info.pinned {
			rsp.SetAttr("pinned", "true")
		}
		if info.rerouted {
			rsp.SetAttr("rerouted", "true")
		}
		if info.stolen {
			rsp.SetAttr("stolen", "true")
		}
		rsp.End()

		fsp := rt.opts.Tracer.Start(sub.Context(), "router.forward")
		fsp.SetAttr("node", b.node.Name)
		ctx := r.Context()
		if fsp != nil {
			ctx = span.ContextWith(ctx, fsp.Context())
		}
		st, err := b.cli.Submit(ctx, req)
		if err != nil {
			fsp.SetAttr("error", err.Error())
		}
		fsp.End()
		if err == nil {
			rt.recordSubmit(b, st, info)
			sub.SetAttr("job", st.ID)
			sub.SetAttr("node", b.node.Name)
			rt.met.submitLatency.ObserveWithExemplar(time.Since(start), st.TraceID)
			rt.log.Info("job routed", "job", st.ID, "node", b.node.Name,
				"pinned", info.pinned, "rerouted", info.rerouted, "stolen", info.stolen,
				"trace", st.TraceID, "span", sub.Context().SpanID)
			w.Header().Set("Location", "/v1/jobs/"+st.ID)
			w.Header().Set("X-MMT-Node", b.node.Name)
			writeJSON(w, http.StatusAccepted, st)
			return
		}
		var se *client.StatusError
		if errors.As(err, &se) {
			// The backend answered: pass its verdict (400, 429+Retry-After,
			// 503, ...) through untouched.
			sub.SetAttr("error", se.Message)
			rt.log.Warn("submit refused by backend", "node", b.node.Name,
				"status", se.Code, "error", se.Message, "trace", req.TraceID)
			writeError(w, se.Code, se.RetryAfter, "%s", se.Message)
			return
		}
		if r.Context().Err() != nil {
			return // client went away mid-forward
		}
		rt.countError()
		b.markDown(err)
		rt.dropPlacement(key, b)
		rt.log.Warn("backend down, re-placing", "node", b.node.Name,
			"error", err.Error(), "trace", req.TraceID)
	}
	sub.SetAttr("error", "all backends unreachable")
	writeError(w, http.StatusBadGateway, 0, "all backends unreachable")
}

// recordSubmit books a successful forward: job routing (with the job's
// trace id, for proxy spans), the node's outstanding count unless the job
// is already finished (a cache hit), placement counters, and the
// route-kind counters.
func (rt *Router) recordSubmit(b *backend, st serve.JobStatus, info routeInfo) {
	counted := !st.State.Terminal()
	rt.mu.Lock()
	rt.jobs[st.ID] = jobRoute{b: b, trace: st.TraceID, counted: counted}
	rt.met.routed.Inc()
	if info.rerouted {
		rt.met.rerouted.Inc()
	}
	if info.stolen {
		rt.met.stolen.Inc()
	}
	rt.mu.Unlock()
	b.mu.Lock()
	b.routed++
	if info.stolen {
		b.stolen++
	}
	if counted {
		b.outstanding++
	}
	b.mu.Unlock()
}

// finishJob takes a job out of its node's outstanding count, once.
func (rt *Router) finishJob(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	jr, ok := rt.jobs[id]
	if !ok || !jr.counted {
		return
	}
	jr.counted = false
	rt.jobs[id] = jr
	jr.b.mu.Lock()
	if jr.b.outstanding > 0 { // a probe may already have lowered it
		jr.b.outstanding--
	}
	jr.b.mu.Unlock()
}

// dropPlacement removes key's placement if it still points at b.
func (rt *Router) dropPlacement(key string, b *backend) {
	rt.mu.Lock()
	if pl, ok := rt.placements[key]; ok && pl.b == b {
		delete(rt.placements, key)
	}
	rt.met.placements.Set(int64(len(rt.placements)))
	rt.mu.Unlock()
}

// handleJobProxy forwards GET /v1/jobs/{id} and its SSE stream to the
// backend that accepted the job. Jobs on a draining node stay reachable
// until the node finishes its drain and exits.
func (rt *Router) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	jr, ok := rt.jobs[id]
	rt.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, 0, "no such job: %s (not routed through this router)", id)
		return
	}
	if jr.trace != "" {
		psp := rt.opts.Tracer.Start(span.SpanContext{TraceID: jr.trace}, "router.proxy")
		psp.SetAttr("job", id)
		psp.SetAttr("node", jr.b.node.Name)
		defer psp.End()
	}
	jr.b.proxy.ServeHTTP(w, r)
}

// handleStream proxies a job's SSE stream. The node closes the stream
// after the job's outcome event, so a stream that ends while its client
// still listens means the job finished and its worker is free again.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	rt.handleJobProxy(w, r)
	if r.Context().Err() == nil {
		rt.finishJob(r.PathValue("id"))
	}
}

// RouterHealth is the GET /v1/healthz body: serve.Health-compatible, with
// fleet membership counts alongside.
type RouterHealth struct {
	Status   string `json:"status"` // "ok" while >= 1 backend is healthy
	UptimeMS int64  `json:"uptime_ms"`
	Healthy  int    `json:"healthy"`
	Draining int    `json:"draining"`
	Down     int    `json:"down"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := RouterHealth{UptimeMS: time.Since(rt.start).Milliseconds()}
	h.Healthy, h.Draining, h.Down = rt.countNodes()
	status := http.StatusOK
	h.Status = "ok"
	if h.Healthy == 0 {
		h.Status = "unhealthy"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleStats serves an aggregated serve.Stats, so tools written against
// one mmtserved (mmtload's before/after accounting, dashboards) work
// unchanged against the whole fleet. Counters sum across nodes; latency
// quantiles report the fleet-worst node.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	fleet, _ := rt.fleetStats(r.Context())
	fleet.UptimeMS = time.Since(rt.start).Milliseconds()
	writeJSON(w, http.StatusOK, fleet)
}

// fleetStats fans a fresh /v1/stats request out to every non-down backend
// (falling back to the last probed snapshot) and sums the counters. The
// per-node snapshots are returned alongside for /v1/cluster.
func (rt *Router) fleetStats(ctx context.Context) (serve.Stats, []serve.Stats) {
	per := make([]serve.Stats, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		st, _ := b.snapshotState()
		if st == stateDown || st == stateUnknown {
			b.mu.Lock()
			per[i] = b.stats // possibly stale; zero value if never probed
			b.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			per[i] = rt.fetchStats(ctx, b)
		}(i, b)
	}
	wg.Wait()
	var fleet serve.Stats
	for _, s := range per {
		fleet.QueueDepth += s.QueueDepth
		fleet.Admitted += s.Admitted
		fleet.Submitted += s.Submitted
		fleet.Deduped += s.Deduped
		fleet.Rejected += s.Rejected
		fleet.Expired += s.Expired
		fleet.Completed += s.Completed
		fleet.Failed += s.Failed
		fleet.Simulated += s.Simulated
		fleet.FromCache += s.FromCache
		fleet.Streams += s.Streams
		fleet.RequestP50MS = maxf(fleet.RequestP50MS, s.RequestP50MS)
		fleet.RequestP99MS = maxf(fleet.RequestP99MS, s.RequestP99MS)
		fleet.JobP50MS = maxf(fleet.JobP50MS, s.JobP50MS)
		fleet.JobP99MS = maxf(fleet.JobP99MS, s.JobP99MS)
	}
	return fleet, per
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// NodeStatus is one backend's row in ClusterStats.
type NodeStatus struct {
	Node
	State string `json:"state"`
	// Outstanding is the router's count of jobs it forwarded to the node
	// and has not seen finish, the load placement reads.
	Outstanding int         `json:"outstanding"`
	Routed      uint64      `json:"routed"`
	Stolen      uint64      `json:"stolen"`
	Error       string      `json:"error,omitempty"`
	Stats       serve.Stats `json:"stats"`
}

// ClusterStats is the GET /v1/cluster body: the router's own routing
// counters, the fleet-summed serving stats, and a per-node breakdown.
type ClusterStats struct {
	UptimeMS   int64        `json:"uptime_ms"`
	Routed     uint64       `json:"routed"`
	Rerouted   uint64       `json:"rerouted"`
	Stolen     uint64       `json:"stolen"`
	Errors     uint64       `json:"errors"`
	Placements int          `json:"placements"`
	Fleet      serve.Stats  `json:"fleet"`
	Nodes      []NodeStatus `json:"nodes"`
	// DedupRatio is the fraction of completed jobs that did not cost a
	// fresh simulation — the fleet-wide analogue of the paper's fetch
	// redundancy: (completed - simulated) / completed.
	DedupRatio float64 `json:"dedup_ratio"`
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	fleet, per := rt.fleetStats(r.Context())
	cs := ClusterStats{
		UptimeMS: time.Since(rt.start).Milliseconds(),
		Fleet:    fleet,
	}
	rt.mu.Lock()
	cs.Routed = rt.met.routed.Value()
	cs.Rerouted = rt.met.rerouted.Value()
	cs.Stolen = rt.met.stolen.Value()
	cs.Errors = rt.met.errors.Value()
	cs.Placements = len(rt.placements)
	rt.mu.Unlock()
	for i, b := range rt.backends {
		b.mu.Lock()
		cs.Nodes = append(cs.Nodes, NodeStatus{
			Node:        b.node,
			State:       b.state.String(),
			Outstanding: b.outstanding,
			Routed:      b.routed,
			Stolen:      b.stolen,
			Error:       b.lastErr,
			Stats:       per[i],
		})
		b.mu.Unlock()
	}
	if cs.Fleet.Completed > 0 {
		cs.DedupRatio = float64(cs.Fleet.Completed-cs.Fleet.Simulated) / float64(cs.Fleet.Completed)
	}
	writeJSON(w, http.StatusOK, cs)
}
