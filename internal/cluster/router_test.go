package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mmt/internal/obs"
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
	for i := uint64(0); i < 256; i++ {
		spec := cheapSpec(2000 + 16*i)
		if rt.Owner(specKey(t, spec)).Name == name {
			return spec
		}
	}
	t.Fatalf("no cheap spec hashes onto node %s", name)
	return sim.TaskSpec{}
}

// fakeNode is a scriptable mmtserved stand-in: health status and queue
// depth are settable, and submissions are acknowledged without running
// anything.
type fakeNode struct {
	name    string
	status  atomic.Value // string: "ok" | "draining"
	depth   atomic.Int64
	submits atomic.Int64
	srv     *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	f := &fakeNode{name: name}
	f.status.Store("ok")
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
		writeJSON(w, http.StatusOK, serve.Stats{QueueDepth: int(f.depth.Load())})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n := f.submits.Add(1)
		writeJSON(w, http.StatusAccepted, serve.JobStatus{ID: fmt.Sprintf("%s-%d", f.name, n)})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
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

// TestRouterWorkStealing checks the rebalance path: when a key's owner
// runs a hot queue, the idle node pulls the work instead — and the
// placement pin keeps later submissions of that key on the thief, so
// fleet-wide dedup is preserved.
func TestRouterWorkStealing(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	rt := newTestRouter(t, RouterOptions{
		Nodes:          []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		StealThreshold: 4,
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := specOwnedBy(t, rt, "a")
	a.depth.Store(20) // owner runs hot
	waitRouter(t, func() bool {
		for _, n := range clusterSnapshot(t, front.URL).Nodes {
			if n.Name == "a" && n.QueueDepth == 20 {
				return true
			}
		}
		return false
	}, "observed the hot queue")

	node, code := submitVia(t, front.URL, spec)
	if code != http.StatusAccepted || node != "b" {
		t.Fatalf("hot owner: routed to %q (status %d), want idle node b", node, code)
	}
	if cs := clusterSnapshot(t, front.URL); cs.Stolen == 0 {
		t.Error("stolen counter did not move")
	}
	// The pin holds: the same key keeps landing on the thief even though
	// the ring still says a.
	for i := 0; i < 3; i++ {
		if node, _ := submitVia(t, front.URL, spec); node != "b" {
			t.Fatalf("resubmission %d left the pinned thief: %q", i, node)
		}
	}
	stolen := clusterSnapshot(t, front.URL).Stolen
	if stolen != 1 {
		t.Errorf("pinned resubmissions re-stole (stolen=%d, want 1)", stolen)
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
