package flight

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Mark("x")
	r.MarkErr("x", "y")
	r.Admit("j", "queued", "t")
	r.Complete("j", "t", time.Second, "")
	r.SpanRef("s", "t", 1, 2)
	r.Log(0, "m", "t")
	r.Panic("n", "k", "t", "v")
	if r.Len() != 0 || r.Dropped() != 0 || r.Entries() != nil || r.Service() != "" {
		t.Error("nil recorder leaked state")
	}
}

// TestEvictionOrder pins the bounded-memory contract: the ring holds at
// most capacity entries, overwrites strictly oldest-first, and reports
// how many it dropped.
func TestEvictionOrder(t *testing.T) {
	const capacity = 8
	r := New("test", capacity)
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

// TestRecordDoesNotAllocate pins the zero-alloc-on-the-hot-path contract
// for the entry points fed on every job.
func TestRecordDoesNotAllocate(t *testing.T) {
	r := New("test", 64)
	if n := testing.AllocsPerRun(200, func() { r.SpanRef("runner.exec", "t-1", 5, 9) }); n > 0 {
		t.Errorf("SpanRef allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.Complete("j-1", "t-1", time.Millisecond, "") }); n > 0 {
		t.Errorf("Complete allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.Admit("j-1", "queued", "t-1") }); n > 0 {
		t.Errorf("Admit allocates %.1f times per call, want 0", n)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New("test", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.SpanRef("runner.exec", "t", 1, 2)
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 128 {
		t.Errorf("Len = %d, want 128", got)
	}
	if got := r.Dropped(); got != 8*500-128 {
		t.Errorf("Dropped = %d, want %d", got, 8*500-128)
	}
}

func TestDumpRoundTripAndRender(t *testing.T) {
	r := New("mmtserved@127.0.0.1:9", 32)
	r.Mark("boot")
	r.Admit("j-1", "queued", "t-9")
	r.Complete("j-1", "t-9", 1500*time.Microsecond, "")
	r.SpanRef("serve.exec", "t-9", time.Now().UnixNano(), int64(2*time.Millisecond))
	r.Log(0, "job submitted job=j-1", "t-9")
	r.Panic("libsvm/base", "deadbeef", "t-9", "boom")

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
	if len(d.Entries) != 7 { // Panic records two entries (panic + key mark)
		t.Fatalf("entries = %d, want 7", len(d.Entries))
	}
	if p := d.Panics(); len(p) != 1 || p[0].Err != "boom" || p[0].Trace != "t-9" {
		t.Errorf("Panics() = %+v", p)
	}
	var keyed bool
	for _, e := range d.Entries {
		if e.Kind == KindMark && strings.Contains(e.Name, "deadbeef") {
			keyed = true
		}
	}
	if !keyed {
		t.Error("panic dump does not name the task key")
	}

	var buf bytes.Buffer
	d.Render(&buf)
	out := buf.String()
	for _, want := range []string{"mmtserved@127.0.0.1:9", "PANIC: boom", "t-9", "serve.exec", "2.000ms", "j-1", "deadbeef"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered dump missing %q:\n%s", want, out)
		}
	}
}

// TestLegacyDumpLoads: a schema-1 dump written before the ring stopped
// recording obs events and samples still loads, and its retired "event"
// and "sample" entries render as kind-? beside the kinds still in use.
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
}

func TestDumpPathSanitizesService(t *testing.T) {
	p := DumpPath("/tmp", "mmtserved@127.0.0.1:8377", 42)
	base := filepath.Base(p)
	if strings.ContainsAny(base, ":/") || !strings.Contains(base, "mmt-flight-") {
		t.Errorf("DumpPath = %q", p)
	}
}

func TestServeHTTP(t *testing.T) {
	r := New("svc", 16)
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
	r := New("svc", 16)
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
