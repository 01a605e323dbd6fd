package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
)

// startBackend brings up a real in-process mmtserved node.
func startBackend(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	if opts.Runner.Workers == 0 {
		opts.Runner.Workers = 2
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 64
	}
	s, err := serve.New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// TestFleetWideDedup is the tentpole acceptance test: with two real
// backends behind the router, N identical submissions — arriving
// concurrently from many clients — cost exactly one simulation
// fleet-wide. Consistent hashing lands every copy on one node, where
// single-flight dedup and the result cache absorb the rest.
func TestFleetWideDedup(t *testing.T) {
	_, hsA := startBackend(t, serve.Options{Runner: runner.Options{CacheDir: t.TempDir()}})
	_, hsB := startBackend(t, serve.Options{Runner: runner.Options{CacheDir: t.TempDir()}})
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: hsA.URL}, {Name: "b", URL: hsB.URL}},
		ProbeEvery: time.Hour, // no probe may correct the counts checked below
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	const n = 8
	spec := cheapSpec(2000)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(front.URL, nil)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_, _, err := c.Run(ctx, serve.SubmitRequest{Task: spec})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	cs := clusterSnapshot(t, front.URL)
	if cs.Fleet.Completed != n {
		t.Errorf("fleet completed %d jobs, want %d", cs.Fleet.Completed, n)
	}
	if cs.Fleet.Simulated != 1 {
		t.Errorf("fleet ran %d simulations for %d identical submissions, want exactly 1", cs.Fleet.Simulated, n)
	}
	want := float64(n-1) / float64(n)
	if cs.DedupRatio < want-1e-9 {
		t.Errorf("dedup ratio %.3f, want >= %.3f", cs.DedupRatio, want)
	}
	// All copies must have landed on one node, and every job a client
	// waited on through the router has left its node's count.
	busy := 0
	for _, node := range cs.Nodes {
		if node.Outstanding != 0 {
			t.Errorf("node %s counts %d outstanding jobs after every client's Run returned, want 0", node.Name, node.Outstanding)
		}
		if node.Routed > 0 {
			busy++
			if node.Routed != n {
				t.Errorf("node %s accepted %d submissions, want all %d on one node", node.Name, node.Routed, n)
			}
		}
	}
	if busy != 1 {
		t.Errorf("%d nodes accepted submissions, want exactly 1", busy)
	}
}

// TestRouterProxiesJobsOnDrainingNode checks the lifecycle guarantee that
// jobs accepted before a drain stay reachable through the router while
// the node finishes them.
func TestRouterProxiesJobsOnDrainingNode(t *testing.T) {
	srvA, hsA := startBackend(t, serve.Options{})
	_, hsB := startBackend(t, serve.Options{})
	rt := newTestRouter(t, RouterOptions{Nodes: []Node{
		{Name: "a", URL: hsA.URL}, {Name: "b", URL: hsB.URL},
	}})
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := specOwnedBy(t, rt, "a")
	c := client.New(front.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}

	// Drain the accepting node; its in-flight job must finish and stay
	// pollable through the router the whole time.
	drained := make(chan error, 1)
	go func() { drained <- srvA.Drain(ctx) }()

	final, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("waiting through router during drain: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
