package flight

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mmt/internal/obs/span"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Mark("x")
	r.Log(0, "m", "t")
	r.Panic("n", "k", "t", "v")
	if r.Len() != 0 || r.Dropped() != 0 || r.Entries() != nil || r.Service() != "" {
		t.Error("nil recorder leaked state")
	}
	if d := r.Snapshot("x"); len(d.Entries) != 0 {
		t.Errorf("nil recorder snapshot holds %d entries", len(d.Entries))
	}
}

// TestEvictionOrder pins the bounded-memory contract: the ring holds at
// most capacity entries, overwrites strictly oldest-first, and reports
// how many it dropped.
func TestEvictionOrder(t *testing.T) {
	const capacity = 8
	r := New("test", capacity, nil)
	for i := 0; i < 3*capacity; i++ {
		r.Mark("m")
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	if got := r.Dropped(); got != 2*capacity {
		t.Errorf("Dropped = %d, want %d", got, 2*capacity)
	}
	es := r.Entries()
	if len(es) != capacity {
		t.Fatalf("Entries len = %d, want %d", len(es), capacity)
	}
	// The survivors are the newest `capacity` entries in emission order:
	// seq 17..24 for 24 emissions into 8 slots.
	for i, e := range es {
		want := uint64(2*capacity + i + 1)
		if e.Seq != want {
			t.Errorf("entry %d: seq = %d, want %d (eviction order broken)", i, e.Seq, want)
		}
	}
	// Wrap mid-ring: the rotation must still come out oldest-first.
	r.Mark("extra")
	es = r.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].Seq != es[i-1].Seq+1 {
			t.Fatalf("entries not in seq order after wrap: %d then %d", es[i-1].Seq, es[i].Seq)
		}
	}
}

// TestRecordDoesNotAllocate pins the zero-alloc contract: recording an
// entry is a struct copy into a preallocated slot.
func TestRecordDoesNotAllocate(t *testing.T) {
	r := New("test", 64, nil)
	if n := testing.AllocsPerRun(200, func() { r.Mark("process start") }); n > 0 {
		t.Errorf("Mark allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.Log(0, "job routed job=j-1", "t-1") }); n > 0 {
		t.Errorf("Log allocates %.1f times per call, want 0", n)
	}
}

// TestConcurrentRecording records into both rings from several
// goroutines while another takes snapshots; run it under -race.
func TestConcurrentRecording(t *testing.T) {
	tr := span.NewTracer("test", 64)
	r := New("test", 128, tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Log(0, "job routed", "t")
				sp := tr.Start(span.SpanContext{TraceID: "t"}, "runner.exec")
				sp.SetAttr("worker", "0")
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if d := r.Snapshot("test"); len(d.Entries) > 128+64 {
				t.Errorf("snapshot holds %d entries, more than both rings", len(d.Entries))
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Len(); got != 128 {
		t.Errorf("Len = %d, want 128", got)
	}
	if got := r.Dropped(); got != 8*500-128 {
		t.Errorf("Dropped = %d, want %d", got, 8*500-128)
	}
	if d := r.Snapshot("test"); len(d.Entries) != 128+64 || d.Dropped != 2*(8*500)-128-64 {
		t.Errorf("snapshot = %d entries, %d dropped; want %d and %d", len(d.Entries), d.Dropped, 128+64, 2*(8*500)-128-64)
	}
}

// TestDumpRoundTripAndRender: a dump holds the ring's entries and every
// span in the span ring, attrs included, merged in end-time order.
func TestDumpRoundTripAndRender(t *testing.T) {
	tr := span.NewTracer("mmtserved@127.0.0.1:9", 16)
	r := New("mmtserved@127.0.0.1:9", 32, tr)
	r.Mark("boot")
	sp := tr.Start(span.SpanContext{TraceID: "t-9"}, "serve.submit")
	sp.SetAttr("job", "j-1")
	sp.End()
	r.Log(0, "job submitted job=j-1", "t-9")
	tr.Start(span.SpanContext{TraceID: "t-9"}, "serve.exec").End()
	r.Panic("libsvm/base", "deadbeef", "t-9", "boom")
	if r.Len() != 4 { // Panic records two entries (panic + key mark)
		t.Fatalf("ring holds %d entries, want 4: spans belong to the span ring", r.Len())
	}

	path := filepath.Join(t.TempDir(), "dump.json")
	if err := r.WriteDump(path, "test"); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Service != "mmtserved@127.0.0.1:9" || d.Reason != "test" {
		t.Errorf("dump header = %+v", d)
	}
	var kinds []string
	for _, e := range d.Entries {
		kinds = append(kinds, e.Kind.String())
	}
	if got, want := strings.Join(kinds, " "), "mark span log span panic mark"; got != want {
		t.Fatalf("dump rows = %s, want %s", got, want)
	}
	if e := d.Entries[1]; e.Name != "serve.submit" || e.Trace != "t-9" || e.Attrs["job"] != "j-1" || e.Seq != 0 {
		t.Errorf("span row = %+v, want serve.submit of t-9 carrying job=j-1 and no ring seq", e)
	}
	var panics []Entry
	var keyed bool
	for _, e := range d.Entries {
		if e.Kind == KindPanic {
			panics = append(panics, e)
		}
		if e.Kind == KindMark && strings.Contains(e.Name, "deadbeef") {
			keyed = true
		}
	}
	if len(panics) != 1 || panics[0].Err != "boom" || panics[0].Trace != "t-9" {
		t.Errorf("panic entries = %+v", panics)
	}
	if !keyed {
		t.Error("panic dump does not name the task key")
	}

	var buf bytes.Buffer
	d.Render(&buf)
	out := buf.String()
	for _, want := range []string{"mmtserved@127.0.0.1:9", "PANIC: boom", "t-9", "serve.exec", "ms job=j-1", "deadbeef"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered dump missing %q:\n%s", want, out)
		}
	}
}

// TestLegacyDumpLoads: a schema-1 dump written before the ring stopped
// recording obs events and samples still loads, and its retired "event"
// and "sample" entries render as kind-? beside the kinds still in use.
// The rendering is pinned byte for byte by legacy_v1.txt.
func TestLegacyDumpLoads(t *testing.T) {
	d, err := ReadDump(filepath.Join("testdata", "legacy_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(d.Entries))
	}
	var buf bytes.Buffer
	d.Render(&buf)
	out := buf.String()
	if n := strings.Count(out, "kind-?"); n != 2 {
		t.Errorf("%d kind-? rows, want 2 (the event and the sample):\n%s", n, out)
	}
	for _, want := range []string{"process start: mmtsim", "runner.exec", "PANIC: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered legacy dump missing %q:\n%s", want, out)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("legacy dump renders differently:\n%s\nwant:\n%s", out, golden)
	}
}

// TestRetiredEdgeKindsLoad: a dump from a build whose ring still held job
// admission and completion edges loads, and those rows render as kind-?.
func TestRetiredEdgeKindsLoad(t *testing.T) {
	raw := `{"schema":1,"service":"mmtserved@127.0.0.1:8392","reason":"SIGQUIT","taken_uns":2000,"dropped":0,"entries":[
		{"seq":1,"uns":1000,"kind":"admit","name":"j000001-25e65768","trace":"load-9-3","err":"queued"},
		{"seq":2,"uns":1500,"kind":"complete","name":"j000001-25e65768","trace":"load-9-3","dur":400000,"err":""}]}`
	path := filepath.Join(t.TempDir(), "edges.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.Render(&buf)
	if n := strings.Count(buf.String(), "kind-?"); n != 2 {
		t.Errorf("%d kind-? rows, want 2 (the admit and the complete):\n%s", n, buf.String())
	}
}

func TestDumpPathSanitizesService(t *testing.T) {
	p := DumpPath("/tmp", "mmtserved@127.0.0.1:8377", 42)
	base := filepath.Base(p)
	if strings.ContainsAny(base, ":/") || !strings.Contains(base, "mmt-flight-") {
		t.Errorf("DumpPath = %q", p)
	}
}

func TestServeHTTP(t *testing.T) {
	r := New("svc", 16, nil)
	r.Mark("hello")
	rr := httptest.NewRecorder()
	r.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/debug/flight", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var d Dump
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Service != "svc" || len(d.Entries) != 1 || d.Entries[0].Name != "hello" {
		t.Errorf("dump = %+v", d)
	}
}

func TestLogHandlerCapture(t *testing.T) {
	r := New("svc", 16, nil)
	var sink bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewTextHandler(&sink, nil), r))

	logger.Info("job submitted", "job", "j-1", "trace", "t-42")
	logger.With("service", "mmtserved", "trace", "t-base").Warn("drain started")

	es := r.Entries()
	if len(es) != 2 {
		t.Fatalf("entries = %d, want 2", len(es))
	}
	if es[0].Kind != KindLog || es[0].Trace != "t-42" || !strings.Contains(es[0].Name, "job submitted") || !strings.Contains(es[0].Name, "job=j-1") {
		t.Errorf("entry 0 = %+v", es[0])
	}
	if es[1].Trace != "t-base" || !strings.Contains(es[1].Name, "drain started") || !strings.Contains(es[1].Name, "service=mmtserved") {
		t.Errorf("entry 1 = %+v", es[1])
	}
	if int(es[1].Arg)-8 != int(slog.LevelWarn) {
		t.Errorf("level = %d, want warn", int(es[1].Arg)-8)
	}
	// The inner handler still sees every line.
	if got := sink.String(); !strings.Contains(got, "job submitted") || !strings.Contains(got, "drain started") {
		t.Errorf("inner handler output missing lines:\n%s", got)
	}
}
