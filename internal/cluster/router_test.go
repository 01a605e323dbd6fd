package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmt/internal/obs"
	"mmt/internal/race"
	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/sim"
)

// cheapSpec is a real but bounded simulation; varying maxInsts varies the
// cache key, which is how tests steer a spec onto a chosen ring owner.
func cheapSpec(maxInsts uint64) sim.TaskSpec {
	return sim.TaskSpec{App: "libsvm", Config: &sim.ConfigOverride{MaxInsts: maxInsts}}
}

func specKey(t *testing.T, spec sim.TaskSpec) string {
	t.Helper()
	task, err := spec.Task()
	if err != nil {
		t.Fatal(err)
	}
	key, err := task.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// specOwnedBy searches bounded variants for one whose key the ring places
// on the named node.
func specOwnedBy(t *testing.T, rt *Router, name string) sim.TaskSpec {
	t.Helper()
	return specsOwnedBy(t, rt, name, 1)[0]
}

// specsOwnedBy returns n distinct specs whose keys the ring places on the
// named node.
func specsOwnedBy(t *testing.T, rt *Router, name string, n int) []sim.TaskSpec {
	t.Helper()
	var specs []sim.TaskSpec
	for i := uint64(0); i < 256 && len(specs) < n; i++ {
		spec := cheapSpec(2000 + 16*i)
		if rt.Owner(specKey(t, spec)).Name == name {
			specs = append(specs, spec)
		}
	}
	if len(specs) < n {
		t.Fatalf("only %d of %d cheap specs hash onto node %s", len(specs), n, name)
	}
	return specs
}

// fakeNode is a scriptable mmtserved stand-in: health status, worker
// count and admitted flights are settable. Submissions are acknowledged
// as queued without running anything (or, while cached is set, as done),
// so a job stays unfinished until its stream is read: the stream answers
// with the job's outcome and ends.
type fakeNode struct {
	name     string
	status   atomic.Value // string: "ok" | "draining"
	workers  atomic.Int64
	admitted atomic.Int64
	cached   atomic.Bool
	submits  atomic.Int64
	srv      *httptest.Server
}

// newFakeNode starts an idle node with one worker.
func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	f := &fakeNode{name: name}
	f.status.Store("ok")
	f.workers.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := f.status.Load().(string)
		code := http.StatusOK
		if st != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, serve.Health{Status: st})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fakeStats(&f.workers, &f.admitted))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		st := serve.JobStatus{ID: fmt.Sprintf("%s-%d", f.name, f.submits.Add(1)), State: serve.StateQueued}
		if f.cached.Load() {
			st.State, st.Source = serve.StateDone, "cache"
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		b, _ := json.Marshal(serve.JobStatus{ID: r.PathValue("id"), State: serve.StateDone})
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: outcome\ndata: %s\n\n", b)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// fakeStats is a fake node's /v1/stats body: its admitted flights and,
// in the pool summary, its worker count.
func fakeStats(workers, admitted *atomic.Int64) serve.Stats {
	return serve.Stats{
		Admitted: int(admitted.Load()),
		Pool:     runner.Summary{Workers: int(workers.Load())},
	}
}

func newTestRouter(t *testing.T, opts RouterOptions) *Router {
	t.Helper()
	if opts.ProbeEvery == 0 {
		opts.ProbeEvery = 20 * time.Millisecond
	}
	rt, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// submitVia posts a spec through the router and returns the accepting
// node (the X-MMT-Node header) and response status.
func submitVia(t *testing.T, base string, spec sim.TaskSpec) (string, int) {
	t.Helper()
	body, err := json.Marshal(serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.Header.Get("X-MMT-Node"), resp.StatusCode
}

// submitJob posts a spec through the router and returns the accepting
// node and the job id.
func submitJob(t *testing.T, base string, spec sim.TaskSpec) (node, id string) {
	t.Helper()
	body, err := json.Marshal(serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	return resp.Header.Get("X-MMT-Node"), st.ID
}

// streamJob reads a job's stream through the router to its end, as a
// client waiting on the job does.
func streamJob(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "event: outcome") {
		t.Fatalf("stream of %s: status %d, %v: %q", id, resp.StatusCode, err, body)
	}
}

// outstanding returns the router's count of unfinished jobs per node.
func outstanding(t *testing.T, base string) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, n := range clusterSnapshot(t, base).Nodes {
		counts[n.Name] = n.Outstanding
	}
	return counts
}

func clusterSnapshot(t *testing.T, base string) ClusterStats {
	t.Helper()
	cs, err := FetchClusterStats(context.Background(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// clusterMatches checks the router's own ClusterStats counts against the
// mmt_cluster_* series they read.
func clusterMatches(t *testing.T, cs ClusterStats, reg *obs.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	for name, got := range map[string]uint64{
		"mmt_cluster_routed_total":   cs.Routed,
		"mmt_cluster_rerouted_total": cs.Rerouted,
		"mmt_cluster_stolen_total":   cs.Stolen,
		"mmt_cluster_errors_total":   cs.Errors,
	} {
		if snap[name] != got {
			t.Errorf("/v1/cluster reports %d, %s = %v", got, name, snap[name])
		}
	}
	if snap["mmt_cluster_placements"] != int64(cs.Placements) {
		t.Errorf("/v1/cluster reports %d placements, mmt_cluster_placements = %v", cs.Placements, snap["mmt_cluster_placements"])
	}
}

// waitRouter polls the router until pred holds (probe loops need a beat
// to observe backend state changes).
func waitRouter(t *testing.T, pred func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never %s", what)
}

// TestRouterRoutesByRingOwner checks the core contract: submissions land
// on their key's ring owner, so identical submissions share a node.
func TestRouterRoutesByRingOwner(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	// More workers than the test submits jobs: no owner is ever busy.
	a.workers.Store(16)
	b.workers.Store(16)
	rt := newTestRouter(t, RouterOptions{Nodes: []Node{
		{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL},
	}})
	front := httptest.NewServer(rt)
	defer front.Close()

	for i := uint64(0); i < 8; i++ {
		spec := cheapSpec(2000 + 16*i)
		want := rt.Owner(specKey(t, spec)).Name
		got, code := submitVia(t, front.URL, spec)
		if code != http.StatusAccepted || got != want {
			t.Errorf("spec %d: routed to %q (status %d), ring owner is %q", i, got, code, want)
		}
		// Resubmitting must not move the key.
		if again, _ := submitVia(t, front.URL, spec); again != got {
			t.Errorf("spec %d: resubmission moved %q -> %q", i, got, again)
		}
	}
	if a.submits.Load() == 0 || b.submits.Load() == 0 {
		t.Errorf("expected both nodes to receive work (a=%d b=%d)", a.submits.Load(), b.submits.Load())
	}
}

// TestRouterDrainReroute checks drain-aware routing: once a node starts
// draining, new keys it owns re-route to its ring successor, while the
// fleet health view reports the drain.
func TestRouterDrainReroute(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	reg := obs.NewRegistry()
	rt := newTestRouter(t, RouterOptions{Nodes: []Node{
		{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL},
	}, Metrics: reg})
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := specOwnedBy(t, rt, "a")
	if node, _ := submitVia(t, front.URL, spec); node != "a" {
		t.Fatalf("before drain: routed to %q, want owner a", node)
	}

	a.status.Store("draining")
	waitRouter(t, func() bool {
		cs := clusterSnapshot(t, front.URL)
		for _, n := range cs.Nodes {
			if n.Name == "a" && n.State == "draining" {
				return true
			}
		}
		return false
	}, "observed node a draining")

	before := clusterSnapshot(t, front.URL)
	node, code := submitVia(t, front.URL, spec)
	if code != http.StatusAccepted || node != "b" {
		t.Fatalf("during drain: routed to %q (status %d), want successor b", node, code)
	}
	after := clusterSnapshot(t, front.URL)
	if after.Rerouted <= before.Rerouted {
		t.Errorf("rerouted counter did not move (%d -> %d)", before.Rerouted, after.Rerouted)
	}
	clusterMatches(t, after, reg)

	// Recovery: the drained node comes back and owns its keys again.
	a.status.Store("ok")
	waitRouter(t, func() bool {
		var h RouterHealth
		resp, err := http.Get(front.URL + "/v1/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return false
		}
		return h.Healthy == 2
	}, "saw node a healthy again")
}

// TestRouterWorkStealing checks the rebalance path: when every worker of
// a key's owner is taken, a node with a free worker runs the key instead
// of letting it queue — and the placement pins keep later submissions of
// the stolen key on the thief, and of the live key on its busy owner, so
// fleet-wide dedup is preserved.
func TestRouterWorkStealing(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // no probe may lower the counts
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	specs := specsOwnedBy(t, rt, "a", 2)
	if node, _ := submitJob(t, front.URL, specs[0]); node != "a" {
		t.Fatalf("first key: routed to %q, want its idle owner a", node)
	}
	if node, _ := submitJob(t, front.URL, specs[1]); node != "b" {
		t.Fatalf("second key: routed to %q, want b (a's one worker is taken)", node)
	}
	if cs := clusterSnapshot(t, front.URL); cs.Stolen != 1 {
		t.Errorf("stolen = %d after two keys on one single-worker owner, want 1", cs.Stolen)
	}
	// The pins hold: the stolen key keeps landing on the thief even though
	// the ring still says a, and the first key keeps landing on its busy
	// owner, where a resubmission joins the running flight.
	for i := 0; i < 3; i++ {
		if node, _ := submitJob(t, front.URL, specs[1]); node != "b" {
			t.Fatalf("resubmission %d left the pinned thief: %q", i, node)
		}
		if node, _ := submitJob(t, front.URL, specs[0]); node != "a" {
			t.Fatalf("resubmission %d of the live key left its busy node: %q", i, node)
		}
	}
	if stolen := clusterSnapshot(t, front.URL).Stolen; stolen != 1 {
		t.Errorf("pinned resubmissions re-stole (stolen=%d, want 1)", stolen)
	}
}

// TestRouterStreamEndFreesWorker checks the count's decrement: once a
// job's stream ends through the router, its node has a free worker again
// and takes its next key, and a second stream of the finished job does
// not free a worker twice. A job answered finished never counts.
func TestRouterStreamEndFreesWorker(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // no probe may lower the counts
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	specs := specsOwnedBy(t, rt, "a", 4)
	a.cached.Store(true)
	if node, _ := submitJob(t, front.URL, specs[3]); node != "a" || outstanding(t, front.URL)["a"] != 0 {
		t.Fatalf("a cache hit on %q counts %d outstanding on a, want a and 0", node, outstanding(t, front.URL)["a"])
	}
	a.cached.Store(false)
	_, first := submitJob(t, front.URL, specs[0])
	_, join := submitJob(t, front.URL, specs[0]) // pinned: a joiner on a
	if got := outstanding(t, front.URL); got["a"] != 2 || got["b"] != 0 {
		t.Fatalf("outstanding = %v after two submissions on a, want a=2 b=0", got)
	}

	streamJob(t, front.URL, first)
	streamJob(t, front.URL, first)
	if got := outstanding(t, front.URL)["a"]; got != 1 {
		t.Fatalf("a has %d outstanding after its first job's stream ended twice, want 1", got)
	}
	if node, _ := submitJob(t, front.URL, specs[1]); node != "b" {
		t.Fatalf("with the joiner still outstanding, a's next key went to %q, want b", node)
	}

	streamJob(t, front.URL, join)
	if node, _ := submitJob(t, front.URL, specs[2]); node != "a" {
		t.Fatalf("after both of a's jobs finished, its next key went to %q, want a", node)
	}
	if stolen := clusterSnapshot(t, front.URL).Stolen; stolen != 1 {
		t.Errorf("stolen = %d, want 1", stolen)
	}
}

// TestRouterProxyReusesBuffers bounds what proxying a job's stream
// allocates, router, fake node and client together: the backend proxies
// share one buffer pool, so a proxied response no longer allocates its
// own 32 KB copy buffer.
func TestRouterProxyReusesBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // no probe allocates during the measurement
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	a.cached.Store(true)
	_, id := submitJob(t, front.URL, specsOwnedBy(t, rt, "a", 1)[0])
	streamJob(t, front.URL, id) // warms the connections and the pool
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		streamJob(t, front.URL, id)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 16<<10 {
		t.Errorf("a proxied stream allocates %d bytes, bound 16 KB", per)
	}
}

// TestRouterProbeLowersCount checks the probe's correction: a job nobody
// waits on through the router stops counting once a probe reads the
// node's own figure of unfinished flights, and a probe never raises a
// count.
func TestRouterProbeLowersCount(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // probes run only where the test calls them
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	specs := specsOwnedBy(t, rt, "a", 2)
	submitJob(t, front.URL, specs[0])
	submitJob(t, front.URL, specs[0]) // a joiner: two jobs, one flight
	a.admitted.Store(1)
	b.admitted.Store(3) // flights the router did not send
	rt.probeAll()
	if got := outstanding(t, front.URL); got["a"] != 1 || got["b"] != 0 {
		t.Fatalf("outstanding = %v after a probe saw a=1 b=3 admitted, want a=1 b=0", got)
	}

	// The flight finished and nobody streamed either job.
	a.admitted.Store(0)
	rt.probeAll()
	if node, _ := submitJob(t, front.URL, specs[1]); node != "a" {
		t.Fatalf("after a probe saw a idle, its next key went to %q, want a", node)
	}
	if stolen := clusterSnapshot(t, front.URL).Stolen; stolen != 0 {
		t.Errorf("stolen = %d, want 0", stolen)
	}
}

// TestRouterDownBackendFailsOver checks transport-level failover: a dead
// backend is marked down on first contact and the submission retries on
// the survivor.
func TestRouterDownBackendFailsOver(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	reg := obs.NewRegistry()
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // only the initial probe: the kill below stays unobserved
		Metrics:    reg,
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := specOwnedBy(t, rt, "a")
	a.srv.Close() // dies after the initial probe saw it healthy
	node, code := submitVia(t, front.URL, spec)
	if code != http.StatusAccepted || node != "b" {
		t.Fatalf("dead owner: routed to %q (status %d), want failover to b", node, code)
	}
	cs := clusterSnapshot(t, front.URL)
	if cs.Errors != 1 || cs.Routed != 1 || cs.Rerouted != 1 {
		t.Errorf("cluster stats = errors %d routed %d rerouted %d, want 1/1/1", cs.Errors, cs.Routed, cs.Rerouted)
	}
	clusterMatches(t, cs, reg)
}
