package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmt/internal/obs/span"
	"mmt/internal/prog"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// echoNode is a fake mmtserved that records the trace id each submission
// arrived with — both the body's trace_id and the traceparent header —
// and echoes it back, like the real server does.
type echoNode struct {
	name       string
	status     atomic.Value // string
	workers    atomic.Int64
	admitted   atomic.Int64
	bodyTrace  atomic.Value // string: last SubmitRequest.TraceID
	headerCtx  atomic.Value // span.SpanContext: last traceparent
	srv        *httptest.Server
	submission atomic.Int64
}

func newEchoNode(t *testing.T, name string) *echoNode {
	t.Helper()
	f := &echoNode{name: name}
	f.status.Store("ok")
	f.workers.Store(1)
	f.bodyTrace.Store("")
	f.headerCtx.Store(span.SpanContext{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, serve.Health{Status: f.status.Load().(string)})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fakeStats(&f.workers, &f.admitted))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req serve.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, 0, "%v", err)
			return
		}
		f.bodyTrace.Store(req.TraceID)
		f.headerCtx.Store(span.Extract(r.Header))
		n := f.submission.Add(1)
		writeJSON(w, http.StatusAccepted, serve.JobStatus{
			ID: fmt.Sprintf("%s-%d", f.name, n), State: serve.StateQueued, TraceID: req.TraceID,
		})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// TestStolenJobKeepsCreatorTraceID is the regression test for trace-id
// continuity on rebalanced placements: when a submission is work-stolen
// (or re-routed off a draining owner), the job must run under the trace
// id pinned at the router, not a fresh one minted by the accepting node —
// otherwise the fleet waterfall loses the hop where latency went.
func TestStolenJobKeepsCreatorTraceID(t *testing.T) {
	a, b := newEchoNode(t, "a"), newEchoNode(t, "b")
	tracer := span.NewTracer("router-under-test", 256)
	rt := newTestRouter(t, RouterOptions{
		Nodes:      []Node{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		ProbeEvery: time.Hour, // probes run only where the test calls them
		Tracer:     tracer,
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	specs := specsOwnedBy(t, rt, "a", 2)
	// The first key takes the ring owner's one worker; b must steal the
	// second.
	if node, _ := submitJob(t, front.URL, specs[0]); node != "a" {
		t.Fatalf("first key landed on %q, want its owner a", node)
	}
	spec := specs[1]

	// No client-chosen trace id: the router must mint one and the thief
	// must receive it, in the body and in the traceparent header.
	body, err := json.Marshal(serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-MMT-Node") != "b" {
		t.Fatalf("submission landed on %q, want stolen by b", resp.Header.Get("X-MMT-Node"))
	}
	if st.TraceID == "" {
		t.Fatal("router did not mint a trace id")
	}
	if got := b.bodyTrace.Load().(string); got != st.TraceID {
		t.Errorf("thief received body trace %q, want the router-pinned %q", got, st.TraceID)
	}
	if got := b.headerCtx.Load().(span.SpanContext); got.TraceID != st.TraceID {
		t.Errorf("thief received traceparent %q, want trace %q", got.TraceID, st.TraceID)
	}
	// The router's own route span marks the steal in that same trace.
	route := findRec(t, tracer.Records(st.TraceID), "router.route")
	if route.Attrs["stolen"] != "true" || route.Attrs["node"] != "b" {
		t.Errorf("router.route attrs = %v, want stolen=true node=b", route.Attrs)
	}

	// Re-route case: the owner drains, and a client-chosen id survives
	// the diversion to the ring successor.
	a.status.Store("draining")
	rt.probeAll()
	spec2 := cheapSpec(900000) // a fresh key, unpinned by the steal above
	body2, err := json.Marshal(serve.SubmitRequest{Task: spec2, TraceID: "tr-reroute"})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := b.bodyTrace.Load().(string); got != "tr-reroute" {
		t.Errorf("re-routed submission carried trace %q, want tr-reroute", got)
	}
	if got := b.headerCtx.Load().(span.SpanContext); got.TraceID != "tr-reroute" {
		t.Errorf("re-routed traceparent trace %q, want tr-reroute", got.TraceID)
	}
}

func findRec(t *testing.T, recs []span.Record, name string) span.Record {
	t.Helper()
	for _, r := range recs {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no %q span in %d records", name, len(recs))
	return span.Record{}
}

// gatedResolve blocks every real simulation build until release is
// called, so a second identical submission reliably joins the in-flight
// first one (the cluster-side twin of the serve package's gate).
func gatedResolve(t *testing.T) (func(sim.TaskSpec) (sim.Task, error), func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	resolve := func(spec sim.TaskSpec) (sim.Task, error) {
		task, err := spec.Task()
		if err != nil {
			return sim.Task{}, err
		}
		app, threads, ident := task.App, task.Threads, task.Preset.IdenticalInputs()
		task.Build = func() (*prog.System, error) {
			<-gate
			return app.Build(threads, ident)
		}
		return task, nil
	}
	return resolve, release
}

// TestFleetStitchedTrace is the tentpole acceptance test: a router and
// two real mmtserved nodes, each with its own span ring, produce traces
// that stitch into one tree spanning all three processes — including a
// dedup joiner whose span links back to the creator's flight — and the
// waterfall renders it.
func TestFleetStitchedTrace(t *testing.T) {
	resolve, release := gatedResolve(t)
	trA := span.NewTracer("node-a", 512)
	trB := span.NewTracer("node-b", 512)
	_, hsA := startBackend(t, serve.Options{Resolve: resolve, Tracer: trA})
	_, hsB := startBackend(t, serve.Options{Resolve: resolve, Tracer: trB})
	trR := span.NewTracer("router", 512)
	rt := newTestRouter(t, RouterOptions{
		Nodes:  []Node{{Name: "a", URL: hsA.URL}, {Name: "b", URL: hsB.URL}},
		Tracer: trR,
	})
	front := httptest.NewServer(rt)
	defer front.Close()

	specA := specOwnedBy(t, rt, "a")
	specB := specOwnedBy(t, rt, "b")
	c := client.New(front.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	creator, err := c.Submit(ctx, serve.SubmitRequest{Task: specA, TraceID: "fleet-1"})
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := c.Submit(ctx, serve.SubmitRequest{Task: specA, TraceID: "fleet-2"})
	if err != nil {
		t.Fatal(err)
	}
	if !joiner.Dedup {
		t.Fatal("second identical submission did not join the in-flight first")
	}
	other, err := c.Submit(ctx, serve.SubmitRequest{Task: specB, TraceID: "fleet-3"})
	if err != nil {
		t.Fatal(err)
	}
	release()
	for _, id := range []string{creator.ID, joiner.ID, other.ID} {
		if st, err := c.Wait(ctx, id, nil); err != nil || st.State != serve.StateDone {
			t.Fatalf("job %s: %v (state %v)", id, err, st.State)
		}
	}

	// Gather all three traces from all three processes, exactly as
	// mmttrace does, and stitch.
	var records []span.Record
	for _, base := range []string{front.URL, hsA.URL, hsB.URL} {
		for _, id := range []string{"fleet-1", "fleet-2", "fleet-3"} {
			sr, err := span.FetchSpans(ctx, nil, base, id)
			if err != nil {
				t.Fatalf("fetching %s from %s: %v", id, base, err)
			}
			records = append(records, sr.Spans...)
		}
	}
	tree := span.Stitch(records)
	if want := []string{"node-a", "node-b", "router"}; strings.Join(tree.Services, ",") != strings.Join(want, ",") {
		t.Fatalf("stitched services = %v, want %v", tree.Services, want)
	}

	// Children never start before their parent, across processes too
	// (same machine clock; the parent's Start always precedes the RPC).
	tree.Walk(func(n *span.Node, _ int) {
		for _, ch := range n.Children {
			if ch.StartUNS < n.StartUNS-int64(2*time.Millisecond) {
				t.Errorf("span %s (%s) starts before its parent %s (%s)", ch.Name, ch.Service, n.Name, n.Service)
			}
		}
	})

	// The joined trace links to the creator's flight span on node a.
	join := findRec(t, trA.Records("fleet-2"), "serve.join")
	flight := findRec(t, trA.Records("fleet-1"), "serve.flight")
	if join.LinkTrace != "fleet-1" || join.LinkSpan != flight.SpanID {
		t.Errorf("joiner links %s@%s, want the creator flight %s@fleet-1", join.LinkSpan, join.LinkTrace, flight.SpanID)
	}
	// Within the stitched tree no link dangles: the creator trace is
	// present, so the joiner's edge resolves.
	if links := tree.Links(); len(links) != 0 {
		t.Errorf("stitched tree dangles links: %v", links)
	}

	// Every hop is attributed: the trace that crossed router -> node a
	// carries both processes' spans.
	perService := make(map[string]bool)
	for _, r := range records {
		if r.TraceID == "fleet-1" {
			perService[r.Service] = true
		}
	}
	if !perService["router"] || !perService["node-a"] {
		t.Errorf("trace fleet-1 spans services %v, want router and node-a", perService)
	}

	// And the waterfall renders all of it.
	var buf bytes.Buffer
	tree.WriteWaterfall(&buf)
	out := buf.String()
	if !strings.Contains(out, "from 3 processes") {
		t.Errorf("waterfall header missing process count:\n%s", out)
	}
	for _, want := range []string{"router.submit", "serve.exec", "sim.run", "serve.join", "link="} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}
