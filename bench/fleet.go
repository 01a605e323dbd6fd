package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/dse"
	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// The serve-fleet traffic is a caller the repository documents, replayed
// through its own code: the successive-halving design-space study that
// EXPERIMENTS.md runs against a two-node fleet,
//
//	mmtdse -space halving -seed N -workloads libsvm,twolf -server <router>
//
// with mmtdse's default -j on a 2-CPU host, so two evaluations are in
// flight at a time. dse.Search decides every job; the benchmark only
// supplies the backend, which does what dse.ServerBackend does (client.Run
// through the router) and times each call.
const (
	fleetNodes    = 2
	fleetClients  = 2 // dse.Options.Concurrency: mmtdse's -j
	fleetSpace    = "halving"
	fleetDeadline = 150 * time.Second // a hung pass fails instead of outliving the run's limit
)

var fleetApps = []string{"libsvm", "twolf"}

// fleetRig runs the study once per pass on a fresh fleet, so every pass
// starts with empty result caches and repeats the same simulations.
type fleetRig struct {
	spec   *dse.Spec
	budget int    // dse.Options.Budget; 0 runs the whole study
	dir    string // holds every fleet's cache directories
	fl     *fleet // started by set-up or the previous pass's end
	phases *phaseLog
	served map[string]*servedKey // by task key
}

// servedResult is what the checks compare for one served outcome.
type servedResult struct {
	cycles, insts uint64
	energyPerJob  float64
}

// resolveSpec resolves a spec to its task and key in-process.
func resolveSpec(s sim.TaskSpec) (sim.Task, string, error) {
	t, err := s.Task()
	if err != nil {
		return t, "", err
	}
	key, err := t.Key()
	return t, key, err
}

func resultOf(out *sim.Outcome) servedResult {
	r := out.Result
	return servedResult{r.Stats.Cycles, r.Stats.TotalCommitted(), r.EnergyPerJob}
}

// servedKey is the first outcome served for one task key.
type servedKey struct {
	task sim.Task
	res  servedResult
}

// setupFleet resolves the study's space and starts the fleet.
func setupFleet(b *bench) (rig, error) {
	spec, ok := dse.Builtin(fleetSpace)
	if !ok {
		return nil, fmt.Errorf("no builtin design space %q", fleetSpace)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &fleetRig{spec: spec, budget: b.cfg.jobs / len(fleetApps),
		phases: &phaseLog{}, served: make(map[string]*servedKey)}
	dir, err := os.MkdirTemp("", "mmtperf-fleet-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	if d.fl, err = startFleet(dir, d.phases); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return d, nil
}

// jobResult is one client.Run as the study's backend saw it.
type jobResult struct {
	spec  sim.TaskSpec
	track int
	lat   time.Duration
	st    serve.JobStatus
	out   *sim.Outcome
	err   error

	// Traced passes round-trip the outcome through the codec.
	encUS, decUS float64
	back         *sim.Outcome
	codecErr     error
}

// pass runs the study through the router, seeded by the run's seed, and
// tears the fleet down; the next pass starts a fresh one.
func (d *fleetRig) pass(b *bench, traced bool) (interval, error) {
	if d.fl == nil {
		fl, err := startFleet(d.dir, d.phases)
		if err != nil {
			return interval{}, err
		}
		d.fl = fl
	}
	fl := d.fl
	d.fl = nil
	d.phases.reset(traced)

	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	be := &fleetBackend{rig: d, cl: fl.client, free: make([]bool, fleetClients)}
	for i := range be.free {
		be.free[i] = true
	}
	start := time.Now()
	if traced {
		be.root = b.rootSpan("bench.clients", fleetClients, start)
	}
	_, err := dse.Search(ctx, dse.Options{
		Spec:        d.spec,
		Seed:        uint64(b.cfg.seed),
		Budget:      d.budget,
		Workloads:   fleetApps,
		Backend:     be,
		Concurrency: fleetClients,
	})
	wall := time.Since(start)
	if traced {
		be.root.endAt(start.Add(wall))
		be.planSpan(start)
	}
	if err == nil && traced {
		err = d.observeFleet(ctx, b, fl, len(be.results), wall)
	}
	if cerr := fl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return interval{}, err
	}
	for _, r := range be.results {
		d.account(b, r, traced)
	}
	return interval{start, wall}, nil
}

// fleetBackend is the study's dse.Backend: dse.ServerBackend's call, timed.
// In a traced pass it records each job on the track (client slot) that
// ran it: the client-observed job span, the queue wait and run time the
// node reported (derived), the simulation phases the node ran for it, and
// a timed codec round trip of the outcome.
type fleetBackend struct {
	rig  *fleetRig
	cl   *client.Client
	root *span // nil unless traced

	mu      sync.Mutex
	free    []bool // track slots not running a job
	first   time.Time
	results []jobResult
}

func (be *fleetBackend) Name() string { return "bench fleet" }

func (be *fleetBackend) Run(ctx context.Context, spec sim.TaskSpec) (*sim.Outcome, error) {
	return be.RunTraced(ctx, spec, "")
}

// RunTraced carries the study's trace id into the submission, as
// dse.ServerBackend does.
func (be *fleetBackend) RunTraced(ctx context.Context, spec sim.TaskSpec, trace string) (*sim.Outcome, error) {
	track := be.take()
	defer be.put(track)
	start := time.Now()
	r := jobResult{spec: spec, track: track}
	r.out, r.st, r.err = be.cl.Run(ctx, serve.SubmitRequest{Task: spec, TraceID: trace})
	r.lat = time.Since(start)
	if r.err == nil && (r.out == nil || r.out.Result == nil) {
		r.err = fmt.Errorf("job %s finished %s without a timing result", r.st.ID, r.st.State)
	}
	if be.root != nil && r.err == nil {
		be.traceJob(&r, start)
	}
	be.mu.Lock()
	be.results = append(be.results, r)
	be.mu.Unlock()
	return r.out, r.err
}

// take claims the lowest free track; dse never runs more than
// fleetClients evaluations at once.
func (be *fleetBackend) take() int {
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.first.IsZero() {
		be.first = time.Now()
	}
	for i, f := range be.free {
		if f {
			be.free[i] = false
			return i
		}
	}
	panic("mmtperf: more concurrent evaluations than fleetClients")
}

func (be *fleetBackend) put(track int) {
	be.mu.Lock()
	be.free[track] = true
	be.mu.Unlock()
}

func (be *fleetBackend) traceJob(r *jobResult, start time.Time) {
	l := be.root.log
	js := l.begin(be.root, "client.job", r.track, start)
	js.Label = r.spec.Name()
	js.endAt(start.Add(r.lat))
	wait := time.Duration(r.st.WaitMS) * time.Millisecond
	l.derived(js, "queue.wait", "", r.track, start, wait)
	rs := l.derived(js, "runner.run", "", r.track, start.Add(wait), time.Duration(r.st.RunMS)*time.Millisecond)
	if fresh(r.st) {
		for _, p := range be.rig.phases.take(r.st.Key) {
			l.derived(rs, phaseSpanName(p.name), "", r.track, p.start, p.dur)
		}
	}
	es := l.begin(be.root, "codec.encode", r.track, time.Now())
	raw, err := sim.MarshalOutcome(r.out)
	es.end()
	ds := l.begin(be.root, "codec.decode", r.track, time.Now())
	if err == nil {
		r.back, err = sim.UnmarshalOutcome(raw)
	}
	ds.end()
	r.encUS, r.decUS, r.codecErr = es.DurUS, ds.DurUS, err
}

// planSpan records the study's planning, from the pass's start to its
// first submission (validating the space, the static filter and its
// rung-0 ranking), on every track: no job runs until it ends.
func (be *fleetBackend) planSpan(start time.Time) {
	if be.first.IsZero() {
		return
	}
	s := be.root.log.begin(be.root, "dse.plan", 0, start)
	s.Width = fleetClients
	s.endAt(be.first)
}

// fresh reports whether the job's own flight ran the simulation (not a
// cache hit, not a join onto another job's flight).
func fresh(st serve.JobStatus) bool { return st.Source == "simulated" && !st.Dedup }

// countSource tallies how the fleet served one job.
func (b *bench) countSource(st serve.JobStatus) {
	switch {
	case st.Dedup:
		b.joins++
	case st.Source == "cache":
		b.cacheHits++
	default:
		b.simulated++
	}
}

// account records one job: its latency, the simulated instructions it
// cost, and the consistency of its outcome with every earlier one served
// for the same key.
func (d *fleetRig) account(b *bench, r jobResult, traced bool) {
	name := r.spec.Name()
	var simInsts uint64
	if r.err == nil {
		got := resultOf(r.out)
		if prev, ok := d.served[r.st.Key]; !ok {
			t, key, err := resolveSpec(r.spec)
			switch {
			case err != nil:
				r.err = err
			case key != r.st.Key:
				b.wrongResult("%s: the fleet keyed it %s, in-process %s", name, r.st.Key, key)
			default:
				d.served[key] = &servedKey{t, got}
			}
		} else if prev.res != got {
			b.wrongResult("%s: served %d cycles, %d insts; earlier %d cycles, %d insts",
				name, got.cycles, got.insts, prev.res.cycles, prev.res.insts)
		}
		if fresh(r.st) {
			simInsts = got.insts
		}
	}
	b.op(name, r.lat, simInsts, r.err)
	if r.err != nil {
		return
	}
	st := r.st
	b.countSource(st)
	if !traced {
		return
	}
	b.add("serve.jobs", 1)
	if st.Dedup {
		b.add("serve.dedup", 1)
	} else {
		b.add("runner.busy_s", float64(st.RunMS)/1e3)
	}
	if st.Source == "cache" {
		b.add("serve.cache_source", 1)
	}
	b.sample("serve.wait_ms", float64(st.WaitMS))
	b.sample("serve.run_ms", float64(st.RunMS))
	b.sample("serve.overhead_ms", float64(r.lat)/1e6-float64(st.WaitMS+st.RunMS))
	if fresh(st) {
		b.sample("runner.exec_ms", float64(st.RunMS))
		b.observeModel(r.out)
	}
	b.noteCodec(name, r.encUS, r.decUS, len(st.Outcome), r.out, r.back, r.codecErr)
}

// observeFleet reads the router's /v1/cluster view at the end of a traced
// pass: routing counters, fleet-summed serving counters and each node's
// pool summary.
func (d *fleetRig) observeFleet(ctx context.Context, b *bench, fl *fleet, jobs int, wall time.Duration) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fl.front.URL+"/v1/cluster", nil)
	if err != nil {
		return err
	}
	resp, err := fl.http.Do(req)
	if err != nil {
		return fmt.Errorf("reading /v1/cluster: %w", err)
	}
	defer resp.Body.Close()
	var cs cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return fmt.Errorf("decoding /v1/cluster: %w", err)
	}
	var retries float64
	for _, n := range cs.Nodes {
		if pool, ok := n.Stats.Pool.(map[string]any); ok {
			if v, ok := pool["Retries"].(float64); ok {
				retries += v
			}
		}
	}
	for k, v := range map[string]float64{
		"cluster.routed":       float64(cs.Routed),
		"cluster.stolen":       float64(cs.Stolen),
		"cluster.rerouted":     float64(cs.Rerouted),
		"cluster.errors":       float64(cs.Errors),
		"cluster.placements":   float64(cs.Placements),
		"runner.cache_hits":    float64(cs.Fleet.FromCache),
		"runner.cache_writes":  float64(cs.Fleet.Simulated),
		"runner.failed":        float64(cs.Fleet.Failed),
		"runner.retries":       retries,
		"serve.rejected":       float64(cs.Fleet.Rejected),
		"serve.client_retries": float64(fl.posts.Load() - int64(jobs)),
		"runner.capacity_s":    fleetNodes * wall.Seconds(),
	} {
		b.add(k, v)
	}
	return nil
}

// verify re-executes every distinct key served during the run in-process
// and compares the outcome with what the fleet served.
func (d *fleetRig) verify(b *bench) error {
	keys := make([]string, 0, len(d.served))
	for k := range d.served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := make([]servedResult, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fleetClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				out, err := d.served[keys[i]].task.Execute()
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = resultOf(out)
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		want := d.served[k]
		b.checked++
		name := want.task.Name()
		switch {
		case errs[i] != nil:
			b.wrongResult("%s: in-process re-execution failed: %v", name, errs[i])
		case got[i] != want.res:
			b.wrongResult("%s: served %d cycles, %d insts; in-process %d cycles, %d insts",
				name, want.res.cycles, want.res.insts, got[i].cycles, got[i].insts)
		}
	}
	return nil
}

func (d *fleetRig) close() error {
	var err error
	if d.fl != nil {
		err = d.fl.close()
		d.fl = nil
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// fleet is one router and its nodes, each on a loopback listener.
type fleet struct {
	dir    string
	nodes  []*serve.Server
	listen []*httptest.Server
	router *cluster.Router
	front  *httptest.Server
	client *client.Client
	http   *http.Client
	posts  *atomic.Int64 // job submissions the client sent, retries included
}

// startFleet starts the nodes, each with one runner worker and its own
// empty cache directory under parent, and the router in front of them.
func startFleet(parent string, phases *phaseLog) (f *fleet, err error) {
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var members []cluster.Node
	for i := 0; i < fleetNodes; i++ {
		srv, err := serve.New(context.Background(), serve.Options{
			Runner:  runner.Options{Workers: 1, CacheDir: fmt.Sprintf("%s/node%d", dir, i)},
			Resolve: phases.resolve,
		})
		if err != nil {
			return f, err
		}
		f.nodes = append(f.nodes, srv)
		ts := httptest.NewServer(srv)
		f.listen = append(f.listen, ts)
		members = append(members, cluster.Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL})
	}
	if f.router, err = cluster.NewRouter(cluster.RouterOptions{Nodes: members}); err != nil {
		return f, err
	}
	f.front = httptest.NewServer(f.router)
	ct := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	f.posts = &ct.posts
	f.http = &http.Client{Transport: ct}
	f.client = client.New(f.front.URL, f.http)
	return f, nil
}

// close stops the fleet front to back and removes its caches.
func (f *fleet) close() error {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, ts := range f.listen {
		ts.Close()
	}
	var err error
	for _, s := range f.nodes {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	if f.http != nil {
		f.http.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// countingTransport counts POSTs, so client retries show as submissions
// beyond the job count.
type countingTransport struct {
	base  http.RoundTripper
	posts atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		t.posts.Add(1)
	}
	return t.base.RoundTrip(r)
}

// phaseLog records the simulation phases the nodes run during a traced
// pass, by task key, through the nodes' public Resolve hook.
type phaseLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	byKey map[string][]phase
}

type phase struct {
	name  string
	start time.Time
	dur   time.Duration
}

// resolve is the nodes' serve.Options.Resolve: the default resolution,
// plus a Task.Phase hook while a traced pass runs.
func (p *phaseLog) resolve(s sim.TaskSpec) (sim.Task, error) {
	if !p.on.Load() {
		return s.Task()
	}
	t, key, err := resolveSpec(s)
	if err != nil {
		return t, err
	}
	t.Phase = func(name string) func() {
		start := time.Now()
		return func() {
			p.mu.Lock()
			p.byKey[key] = append(p.byKey[key], phase{name, start, time.Since(start)})
			p.mu.Unlock()
		}
	}
	return t, nil
}

func (p *phaseLog) reset(on bool) {
	p.mu.Lock()
	p.byKey = make(map[string][]phase)
	p.mu.Unlock()
	p.on.Store(on)
}

// take returns and forgets the phases recorded for key.
func (p *phaseLog) take(key string) []phase {
	p.mu.Lock()
	defer p.mu.Unlock()
	ph := p.byKey[key]
	delete(p.byKey, key)
	return ph
}
