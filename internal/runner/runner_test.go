package runner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mmt/internal/core"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
	"mmt/internal/prog"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// cheapTask returns a fast timing task: a real workload capped to a small
// per-thread instruction budget. The cap enters the resolved configuration,
// so each budget is a distinct cache key.
func cheapTask(t *testing.T, app string, maxInsts uint64) sim.Task {
	t.Helper()
	a, ok := workloads.ByName(app)
	if !ok {
		t.Fatalf("missing app %s", app)
	}
	return sim.Task{
		App:     a,
		Preset:  sim.PresetBase,
		Threads: 2,
		Mutate:  func(c *core.Config) { c.MaxInsts = maxInsts },
	}
}

func newPool(t *testing.T, ctx context.Context, opts Options) *Pool {
	t.Helper()
	p, err := New(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPoolExecutesAndDedupes(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 2})
	task := cheapTask(t, "libsvm", 20000)
	p.Schedule(task, task) // duplicate schedule must not double-run
	out, err := p.Do(task)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Stats.Cycles == 0 {
		t.Fatalf("empty outcome: %+v", out)
	}
	// Same key through a different (equivalent) closure: shared future.
	again, err := p.Do(cheapTask(t, "libsvm", 20000))
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Error("equal-key task did not share the outcome")
	}
	p.Close()
	s := p.Summary()
	if s.Jobs != 1 || s.Executed != 1 || s.CacheHits != 0 || s.Failed != 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.SimTime <= 0 || len(s.Slowest) != 1 {
		t.Errorf("timings missing: %+v", s)
	}
	if !strings.Contains(s.Format(), "1 jobs") {
		t.Errorf("format: %q", s.Format())
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tasks := []sim.Task{cheapTask(t, "libsvm", 20000), cheapTask(t, "twolf", 20000)}

	p1 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	p1.Schedule(tasks...)
	var fresh []*sim.Outcome
	for _, task := range tasks {
		out, err := p1.Do(task)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, out)
	}
	p1.Close()
	if s := p1.Summary(); s.Executed != 2 || s.CacheHits != 0 {
		t.Fatalf("cold run summary = %+v", s)
	}

	// A second pool over the same directory must execute nothing.
	p2 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	for i, task := range tasks {
		out, err := p2.Do(task)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(fresh[i])
		got, _ := json.Marshal(out)
		if string(want) != string(got) {
			t.Errorf("%s: cached outcome differs from fresh run", task.Name())
		}
	}
	p2.Close()
	if s := p2.Summary(); s.Executed != 0 || s.CacheHits != 2 || s.Invalidated != 0 {
		t.Errorf("warm run summary = %+v", s)
	}
}

func TestDiskCacheCorruptEntryInvalidated(t *testing.T) {
	dir := t.TempDir()
	task := cheapTask(t, "libsvm", 20000)
	key, err := task.Key()
	if err != nil {
		t.Fatal(err)
	}

	p1 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	if _, err := p1.Do(task); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	if _, err := p2.Do(task); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	if s := p2.Summary(); s.Invalidated != 1 || s.Executed != 1 || s.CacheHits != 0 {
		t.Errorf("corrupt-entry summary = %+v", s)
	}

	// The re-execution restored a valid entry.
	p3 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	if _, err := p3.Do(task); err != nil {
		t.Fatal(err)
	}
	p3.Close()
	if s := p3.Summary(); s.CacheHits != 1 || s.Executed != 0 {
		t.Errorf("restored-entry summary = %+v", s)
	}
}

func TestDiskCacheKeyMismatchInvalidated(t *testing.T) {
	dir := t.TempDir()
	a := cheapTask(t, "libsvm", 20000)
	b := cheapTask(t, "libsvm", 30000)
	aKey, _ := a.Key()
	bKey, _ := b.Key()
	if aKey == bKey {
		t.Fatal("distinct budgets share a key")
	}

	p1 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	if _, err := p1.Do(a); err != nil {
		t.Fatal(err)
	}
	p1.Close()

	// Masquerade a's entry as b's: the embedded key must expose it.
	blob, err := os.ReadFile(filepath.Join(dir, aKey+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bKey+".json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	p2 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	out, err := p2.Do(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Stats == nil {
		t.Fatal("empty re-executed outcome")
	}
	p2.Close()
	// Executed==1 (not a cache hit) proves the masqueraded entry was
	// rejected via its embedded key and the point re-simulated.
	if s := p2.Summary(); s.Invalidated != 1 || s.Executed != 1 || s.CacheHits != 0 {
		t.Errorf("mismatch summary = %+v", s)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	blocker := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:blocker",
		Build: func() (*prog.System, error) {
			<-release
			return nil, errors.New("released")
		},
	}
	queued := cheapTask(t, "twolf", 20000)

	p := newPool(t, ctx, Options{Workers: 1})
	p.Schedule(blocker, queued) // blocker occupies the only worker

	done := make(chan error, 1)
	go func() {
		_, err := p.Do(queued)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued job error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not unblock on cancellation")
	}
	if _, err := p.Do(blocker); !errors.Is(err, context.Canceled) {
		t.Errorf("running job error = %v, want context.Canceled", err)
	}
	// New work after cancellation fails fast instead of hanging.
	if _, err := p.Do(cheapTask(t, "ammp", 20000)); !errors.Is(err, context.Canceled) {
		t.Errorf("post-cancel job error = %v, want context.Canceled", err)
	}
	p.Close()
	if s := p.Summary(); s.Failed == 0 {
		t.Errorf("no failures recorded: %+v", s)
	}
}

func TestPanicInJobIsolated(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 2})
	bomb := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:panic",
		Build:   func() (*prog.System, error) { panic("boom") },
	}
	good := cheapTask(t, "libsvm", 20000)
	p.Schedule(bomb, good)

	if _, err := p.Do(bomb); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic error = %v", err)
	}
	out, err := p.Do(good)
	if err != nil || out.Result == nil {
		t.Errorf("sibling job poisoned: %v", err)
	}
	p.Close()
	s := p.Summary()
	if s.Failed != 1 || s.Executed != 1 {
		t.Errorf("summary = %+v", s)
	}
	// Retries=0 by default here; a panic consumes no retry budget.
	if s.Retries != 0 {
		t.Errorf("retries = %d", s.Retries)
	}
}

func TestTimeoutAbandonsAttempt(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 1, Timeout: 50 * time.Millisecond})
	slow := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:slow",
		Build: func() (*prog.System, error) {
			time.Sleep(2 * time.Second)
			return nil, errors.New("woke up")
		},
	}
	if _, err := p.Do(slow); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timeout error = %v", err)
	}
	p.Close()
	if s := p.Summary(); s.Failed != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRetriesConsumedOnFailure(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 1, Retries: 2})
	bad := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:fails",
		Build:   func() (*prog.System, error) { return nil, errors.New("flaky") },
	}
	if _, err := p.Do(bad); err == nil || !strings.Contains(err.Error(), "flaky") {
		t.Errorf("error = %v", err)
	}
	p.Close()
	if s := p.Summary(); s.Retries != 2 || s.Failed != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	dir := t.TempDir()
	fail := true
	flaky := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:recovers",
	}
	flaky.Build = func() (*prog.System, error) {
		if fail {
			return nil, errors.New("transient")
		}
		a := mustApp(t, "libsvm")
		return a.Build(2, sim.PresetBase.IdenticalInputs())
	}

	p1 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	if _, err := p1.Do(flaky); err == nil {
		t.Fatal("first attempt should fail")
	}
	p1.Close()

	fail = false
	p2 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir})
	out, err := p2.Do(flaky)
	if err != nil || out.Result == nil {
		t.Fatalf("recovered run: %v", err)
	}
	p2.Close()
	if s := p2.Summary(); s.Executed != 1 || s.CacheHits != 0 {
		t.Errorf("failure was cached: %+v", s)
	}
}

// TestFailedJobRerunsOnNextDo: a pool does not memoize a failure. Once a
// job's build fails, the next Do of the same key builds it again, and
// the summary counts both schedulings.
func TestFailedJobRerunsOnNextDo(t *testing.T) {
	var builds int
	flaky := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:fails-once",
	}
	flaky.Build = func() (*prog.System, error) {
		builds++
		if builds == 1 {
			return nil, errors.New("transient")
		}
		return mustApp(t, "libsvm").Build(2, sim.PresetBase.IdenticalInputs())
	}

	p := newPool(t, context.Background(), Options{Workers: 1})
	if _, err := p.Do(flaky); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("first Do = %v, want the transient error", err)
	}
	out, err := p.Do(flaky)
	if err != nil || out.Result == nil {
		t.Fatalf("second Do = %v, want a fresh run", err)
	}
	if builds != 2 {
		t.Errorf("builds = %d, want 2 (the failure was memoized)", builds)
	}
	if s := p.Summary(); s.Jobs != 2 || s.Failed != 1 || s.Executed != 1 {
		t.Errorf("summary = %+v, want 2 jobs, 1 failed, 1 executed", s)
	}
}

func TestUnkeyableTaskReported(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 1})
	bogus := sim.Task{App: mustApp(t, "libsvm"), Preset: sim.Preset("Bogus"), Threads: 2}
	p.Schedule(bogus) // must not wedge the pool
	if _, err := p.Do(bogus); err == nil {
		t.Error("unknown preset accepted")
	}
	p.Close()
}

func TestClosedPoolReturnsErrClosed(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 1})
	done := cheapTask(t, "libsvm", 20000)
	out, err := p.Do(done)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	// New keys are refused with the sentinel, by Do and Schedule alike.
	fresh := cheapTask(t, "twolf", 20000)
	if _, err := p.Do(fresh); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	if err := p.Schedule(fresh); !errors.Is(err, ErrClosed) {
		t.Errorf("Schedule after Close = %v, want ErrClosed", err)
	}
	// Keys resolved before Close still collect: the drain pattern is
	// "stop submitting, then gather what was already accepted".
	again, err := p.Do(done)
	if err != nil || again != out {
		t.Errorf("pre-Close key lost after Close: %v", err)
	}
	// The refused task never entered the accounting.
	if s := p.Summary(); s.Jobs != 1 || s.Failed != 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestOnCompleteHook(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	comps := map[string]Completion{}
	hook := func(c Completion) {
		mu.Lock()
		comps[c.Key] = c
		mu.Unlock()
	}
	task := cheapTask(t, "libsvm", 20000)
	key, err := task.Key()
	if err != nil {
		t.Fatal(err)
	}

	p1 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir, OnComplete: hook})
	if _, err := p1.Do(task); err != nil {
		t.Fatal(err)
	}
	// OnComplete runs before Do returns, so no synchronization beyond the
	// hook's own lock is needed here.
	mu.Lock()
	c, ok := comps[key]
	mu.Unlock()
	if !ok || c.FromCache || c.Err != nil || c.Dur <= 0 || c.Name != task.Name() {
		t.Errorf("cold completion = %+v (ok=%v)", c, ok)
	}
	p1.Close()

	p2 := newPool(t, context.Background(), Options{Workers: 1, CacheDir: dir, OnComplete: hook})
	if _, err := p2.Do(task); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	c = comps[key]
	mu.Unlock()
	if !c.FromCache {
		t.Errorf("warm completion not marked FromCache: %+v", c)
	}
	p2.Close()
}

func mustApp(t *testing.T, name string) workloads.App {
	t.Helper()
	a, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("missing app %s", name)
	}
	return a
}

// TestPanicLandsInFlightRecorder is the regression test for the black-box
// contract: a captured worker panic records the offending job's task key
// and trace id in the flight ring and dumps the ring to disk, next to the
// spans of the jobs that ran before it.
func TestPanicLandsInFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	tr := span.NewTracer("runner-test", 64)
	fl := flight.New("runner-test", 64, tr)
	p := newPool(t, context.Background(), Options{
		Workers:       1,
		Flight:        fl,
		FlightDumpDir: dir,
		Tracer:        tr,
	})
	if _, err := p.Do(cheapTask(t, "libsvm", 20000)); err != nil {
		t.Fatal(err)
	}
	bomb := sim.Task{
		App:     mustApp(t, "libsvm"),
		Preset:  sim.PresetBase,
		Threads: 2,
		Variant: "test:flight-panic",
		TraceID: "t-flight-1",
		Build:   func() (*prog.System, error) { panic("flight boom") },
	}
	key, err := bomb.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(bomb); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic error = %v", err)
	}

	var panics []flight.Entry
	for _, e := range fl.Entries() {
		if e.Kind == flight.KindPanic {
			panics = append(panics, e)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("panic entries = %d, want 1", len(panics))
	}
	if panics[0].Trace != "t-flight-1" || !strings.Contains(panics[0].Err, "flight boom") {
		t.Errorf("panic entry = %+v", panics[0])
	}

	path := flight.DumpPath(dir, "runner-test", os.Getpid())
	d, err := flight.ReadDump(path)
	if err != nil {
		t.Fatalf("panic did not leave a flight dump: %v", err)
	}
	if !strings.Contains(d.Reason, "panicked") && !strings.Contains(d.Reason, "panic") {
		t.Errorf("dump reason = %q", d.Reason)
	}
	var keyed bool
	for _, e := range d.Entries {
		if e.Kind == flight.KindMark && strings.Contains(e.Name, key) {
			keyed = true
		}
	}
	if !keyed {
		t.Errorf("dump does not name the panicked task key %s", key)
	}
	var ranBefore bool
	for _, e := range d.Entries {
		if e.Kind == flight.KindSpan && e.Name == "runner.exec" && e.Attrs["name"] != "" {
			ranBefore = true
		}
	}
	if !ranBefore {
		t.Error("dump does not show the job that ran before the panic")
	}
}
