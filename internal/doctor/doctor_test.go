package doctor

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/history"
	"mmt/internal/obs/profiled"
	"mmt/internal/obs/span"
	"mmt/internal/serve"
)

// fakeCPU is what every fake node's profiler ring holds: raw bytes per
// CPU capture id. Capture 5 is listed in the index but has aged out of
// the ring by the time it is fetched.
var fakeCPU = map[int]string{1: "cpu-capture-one", 3: "cpu-capture-three"}

// fakeNode serves one synthetic debug surface: a real flight ring over a
// real span ring, plus hand-rolled history, profile, config and span
// endpoints.
func fakeNode(t *testing.T, service string, withPanic bool) *httptest.Server {
	t.Helper()
	tr := span.NewTracer(service, 16)
	fl := flight.New(service, 32, tr)
	fl.Mark("process start")
	sp := tr.Start(span.SpanContext{TraceID: "t-slow"}, "serve.flight")
	sp.SetAttr("job", "job-1")
	sp.End()
	if withPanic {
		fl.Panic("task", "sha256:abc", "t-crash", "boom")
	}

	// The first sample predates any job, so the lazily-created latency
	// metric is absent from it — triage must still see the pair.
	base := time.Now().Add(-10 * time.Second).UnixNano()
	hist := history.Response{Service: service, EveryMS: 1000, Samples: []history.Sample{
		{UNS: base, Values: map[string]float64{
			"mmt_serve_jobs_completed_total": 0}},
		{UNS: base + 1e9, Values: map[string]float64{
			"mmt_serve_jobs_completed_total":    10,
			"mmt_serve_job_latency_seconds_sum": 0.01, "mmt_serve_job_latency_seconds_count": 10}},
		{UNS: base + 2e9, Values: map[string]float64{
			"mmt_serve_jobs_completed_total":    200,
			"mmt_serve_job_latency_seconds_sum": 1.01, "mmt_serve_job_latency_seconds_count": 20}},
	}}

	mux := http.NewServeMux()
	mux.Handle("GET /v1/debug/flight", fl)
	mux.HandleFunc("GET /v1/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(hist) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/debug/profiles", func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("id"); id != "" {
			n, _ := strconv.Atoi(id)
			raw, ok := fakeCPU[n]
			if !ok {
				http.Error(w, "no such capture", http.StatusNotFound)
				return
			}
			w.Write([]byte(raw)) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(profiled.IndexResponse{ //nolint:errcheck
			Service: service, EveryMS: 1000,
			Captures: []profiled.Capture{
				{ID: 1, Kind: "cpu", StartUNS: base},
				{ID: 2, Kind: "heap", StartUNS: base},
				{ID: 3, Kind: "cpu", StartUNS: base + 1e9},
				{ID: 5, Kind: "cpu", StartUNS: base + 2e9},
			},
		})
	})
	mux.HandleFunc("GET /v1/debug/config", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"service": service}) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("trace") == "t-slow" {
			json.NewEncoder(w).Encode(span.SpansResponse{Service: service, Spans: []span.Record{ //nolint:errcheck
				{TraceID: "t-slow", SpanID: "s1", Name: "router.submit", Service: service,
					StartUNS: base, DurNS: 50e6},
				{TraceID: "t-slow", SpanID: "s2", ParentID: "s1", Name: "serve.run", Service: service,
					StartUNS: base + 1e6, DurNS: 45e6},
			}})
			return
		}
		json.NewEncoder(w).Encode(span.TracesResponse{Service: service, Traces: []span.TraceSummary{ //nolint:errcheck
			{TraceID: "t-slow", Root: "router.submit", Spans: 2, StartUNS: base, DurMS: 50},
		}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// withCluster wraps a fake node with a /v1/cluster that reports the given
// backends, making it look like a router.
func withCluster(t *testing.T, inner http.Handler, nodes ...string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		cs := cluster.ClusterStats{}
		for i, u := range nodes {
			cs.Nodes = append(cs.Nodes, cluster.NodeStatus{
				Node:  cluster.Node{Name: "node" + string(rune('A'+i)), URL: u},
				State: "healthy",
			})
		}
		json.NewEncoder(w).Encode(cs) //nolint:errcheck
	})
	mux.Handle("/", inner)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCollectAndWriteBundle(t *testing.T) {
	node := fakeNode(t, "mmtserved@127.0.0.1:1", true)
	extra := fakeNode(t, "mmtcached@127.0.0.1:2", false)
	routerInner := fakeNode(t, "mmtrouter@127.0.0.1:3", false)
	router := withCluster(t, routerInner.Config.Handler, node.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b, err := Collect(ctx, Options{
		Server:  router.URL,
		Sources: []string{extra.URL, "http://127.0.0.1:1/nothing-here"},
		Version: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(b.Nodes))
	}
	if b.Cluster == nil || len(b.Cluster.Nodes) != 1 {
		t.Errorf("cluster snapshot missing: %+v", b.Cluster)
	}
	if len(b.Unreachable) != 1 {
		t.Errorf("unreachable = %v, want the bogus source", b.Unreachable)
	}
	if len(b.Traces) == 0 || b.Traces[0].ID != "t-slow" {
		t.Fatalf("traces = %+v, want t-slow stitched", b.Traces)
	}
	// The same trace served by several rings dedups in the stitcher.
	if b.Traces[0].Spans != 2 {
		t.Errorf("stitched spans = %d, want 2 after dedup", b.Traces[0].Spans)
	}

	tr := b.Triage
	if tr.SlowestTrace != "t-slow" {
		t.Errorf("slowest trace = %q", tr.SlowestTrace)
	}
	if len(tr.Panics) != 1 || tr.Panics[0].Err != "boom" || tr.Panics[0].Trace != "t-crash" {
		t.Errorf("panics = %+v", tr.Panics)
	}
	var regressed bool
	for _, l := range tr.Latency {
		if l.Metric == "mmt_serve_job_latency_seconds" && l.Regressed {
			regressed = true
		}
	}
	if !regressed {
		t.Errorf("job latency regression not flagged: %+v", tr.Latency)
	}
	// Every CPU capture still in each node's ring is collected; the
	// aged-out one is a per-node note, not a failure.
	if tr.CPUCaptures != 6 {
		t.Errorf("cpu captures = %d, want 2 per node", tr.CPUCaptures)
	}
	var agedOut bool
	for _, n := range tr.Notes {
		if strings.Contains(n, "cpu capture 5") {
			agedOut = true
		}
	}
	if !agedOut {
		t.Errorf("aged-out capture 5 not noted: %v", tr.Notes)
	}

	dir := filepath.Join(t.TempDir(), "bundle")
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		"MANIFEST.json", "cluster.json", "triage.txt", "triage.json",
		"nodes/mmtserved@127.0.0.1_1/flight.json",
		"nodes/mmtserved@127.0.0.1_1/metrics.json",
		"nodes/mmtserved@127.0.0.1_1/profiles.json",
		"nodes/mmtserved@127.0.0.1_1/config.json",
		"nodes/mmtcached@127.0.0.1_2/flight.json",
		"traces/t-slow.json",
	} {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			t.Errorf("bundle missing %s: %v", p, err)
		}
	}
	// Each capture is bundled byte for byte under its ring id, which
	// profiles.json maps to a start time.
	for _, node := range []string{"mmtserved@127.0.0.1_1", "mmtcached@127.0.0.1_2", "mmtrouter@127.0.0.1_3"} {
		for id, want := range fakeCPU {
			got, err := os.ReadFile(filepath.Join(dir, "nodes", node, "cpu-"+strconv.Itoa(id)+".pprof"))
			if err != nil || string(got) != want {
				t.Errorf("%s capture %d = %q, %v; want %q", node, id, got, err, want)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "nodes", node, "cpu-5.pprof")); err == nil {
			t.Errorf("%s: aged-out capture 5 bundled", node)
		}
	}
	txt, err := os.ReadFile(filepath.Join(dir, "triage.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slowest trace: t-slow", "PANICS", "latency regressions",
		"6 CPU captures; in the bundle, merge them with `go tool pprof -top nodes/*/cpu-*.pprof`"} {
		if !strings.Contains(string(txt), want) {
			t.Errorf("triage.txt missing %q:\n%s", want, txt)
		}
	}
	// The bundled flight dump stays renderable by -from-dump.
	d, err := flight.ReadDump(filepath.Join(dir, "nodes/mmtserved@127.0.0.1_1/flight.json"))
	if err != nil {
		t.Fatalf("bundled flight.json not a readable dump: %v", err)
	}
	if len(d.Panics()) != 1 {
		t.Errorf("bundled dump panics = %d", len(d.Panics()))
	}
	var job bool
	for _, e := range d.Entries {
		if e.Kind == flight.KindSpan && e.Name == "serve.flight" && e.Attrs["job"] == "job-1" {
			job = true
		}
	}
	if !job {
		t.Errorf("bundled dump lost the span ring's serve.flight row: %+v", d.Entries)
	}
}

// TestBundledTraceFollowsDedupLink: a dedup joiner's trace holds only
// its admission and a link to the creator's trace, where the simulation
// ran. The bundle must carry the stitched tree mmttrace renders — both
// traces — and the triage hotspot must come from it.
func TestBundledTraceFollowsDedupLink(t *testing.T) {
	const svc = "mmtserved@127.0.0.1:4"
	tr := span.NewTracer(svc, 16)
	base := time.Now().Add(-time.Second).UnixNano()
	spans := map[string][]span.Record{
		"t-joiner": {
			{TraceID: "t-joiner", SpanID: "a1", Name: "serve.submit", Service: svc,
				StartUNS: base + 10e6, DurNS: 2e6},
			{TraceID: "t-joiner", SpanID: "a2", ParentID: "a1", Name: "serve.join", Service: svc,
				StartUNS: base + 11e6, DurNS: 1e6, LinkTrace: "t-creator", LinkSpan: "b1"},
		},
		"t-creator": {
			{TraceID: "t-creator", SpanID: "b1", Name: "serve.flight", Service: svc,
				StartUNS: base, DurNS: 90e6},
			{TraceID: "t-creator", SpanID: "b2", ParentID: "b1", Name: "serve.exec", Service: svc,
				StartUNS: base + 5e6, DurNS: 80e6},
		},
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/debug/flight", flight.New(svc, 8, tr))
	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		if id := r.URL.Query().Get("trace"); id != "" {
			json.NewEncoder(w).Encode(span.SpansResponse{Service: svc, Spans: spans[id]}) //nolint:errcheck
			return
		}
		// Only the joiner is among the recent slow traces.
		json.NewEncoder(w).Encode(span.TracesResponse{Service: svc, Traces: []span.TraceSummary{ //nolint:errcheck
			{TraceID: "t-joiner", Root: "serve.submit", Spans: 2, StartUNS: base + 10e6, DurMS: 2},
		}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b, err := Collect(ctx, Options{Server: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "traces", "t-joiner.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got TraceDiag
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var creator int
	for _, r := range got.Records {
		if r.TraceID == "t-creator" {
			creator++
		}
	}
	if creator != 2 || got.Spans != 4 {
		t.Errorf("traces/t-joiner.json holds %d creator spans of %d, want 2 of 4: %+v",
			creator, got.Spans, got.Records)
	}
	if n := b.Triage.SlowTraces; len(n) != 1 || n[0].Hotspot != "serve.flight" {
		t.Errorf("slow trace notes = %+v, want the creator's serve.flight as hotspot", n)
	}
}

func TestCollectNoNodes(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Collect(ctx, Options{Server: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("collect against nothing succeeded")
	}
}

func TestCheckStats(t *testing.T) {
	st := serve.Stats{JobP99MS: 1500, QueueDepth: 10, Completed: 90, Failed: 10}
	th := Thresholds{MaxJobP99: time.Second, MaxQueue: 5, MaxFailedRate: 0.05}
	vs := CheckStats("n1", st, th)
	if len(vs) != 3 {
		t.Fatalf("violations = %+v, want 3", vs)
	}
	for _, v := range vs {
		if v.Node != "n1" || !strings.Contains(v.String(), "exceeds") {
			t.Errorf("violation = %+v", v)
		}
	}
	if vs := CheckStats("n1", st, Thresholds{}); len(vs) != 0 {
		t.Errorf("zero thresholds still fired: %+v", vs)
	}
	if !th.Enabled() || (Thresholds{}).Enabled() {
		t.Error("Enabled() wrong")
	}
}

func TestProbe(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(cluster.ClusterStats{ //nolint:errcheck
			Fleet: serve.Stats{QueueDepth: 3},
			Nodes: []cluster.NodeStatus{
				{Node: cluster.Node{Name: "a"}, State: "healthy", Stats: serve.Stats{JobP99MS: 5000}},
				{Node: cluster.Node{Name: "b"}, State: "down"},
			},
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	vs, err := Probe(context.Background(), Options{Server: srv.URL},
		Thresholds{MaxJobP99: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var p99, down bool
	for _, v := range vs {
		if v.Node == "a" && v.Check == "job p99" {
			p99 = true
		}
		if v.Node == "b" && v.Check == "state" {
			down = true
		}
	}
	if !p99 || !down {
		t.Errorf("violations = %+v", vs)
	}

	// A single node without /v1/cluster answers via /v1/stats.
	single := http.NewServeMux()
	single.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(serve.Stats{QueueDepth: 100}) //nolint:errcheck
	})
	ssrv := httptest.NewServer(single)
	defer ssrv.Close()
	vs, err = Probe(context.Background(), Options{Server: ssrv.URL}, Thresholds{MaxQueue: 10})
	if err != nil || len(vs) != 1 || vs[0].Check != "queue depth" {
		t.Errorf("single-node probe = %+v, %v", vs, err)
	}
}
