package runner

import (
	"context"
	"testing"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
)

// spansNamed returns the tracer's finished spans with the given name.
func spansNamed(tr *span.Tracer, name string) []span.Record {
	var out []span.Record
	for _, r := range tr.Records("") {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// summaryMatches checks every Summary count against the mmt_runner_*
// series it reads: the report and /metrics are one set of instruments.
func summaryMatches(t *testing.T, label string, s Summary, snap map[string]any) {
	t.Helper()
	for name, got := range map[string]int{
		"mmt_runner_jobs_scheduled_total":    s.Jobs,
		"mmt_runner_jobs_executed_total":     s.Executed,
		"mmt_runner_cache_hits_total":        s.CacheHits,
		"mmt_runner_jobs_failed_total":       s.Failed,
		"mmt_runner_retries_total":           s.Retries,
		"mmt_runner_cache_invalidated_total": s.Invalidated,
	} {
		if snap[name] != uint64(got) {
			t.Errorf("%s: Summary reports %d, %s = %v", label, got, name, snap[name])
		}
	}
	if sum := snap["mmt_runner_run_seconds_sum"]; sum != s.SimTime.Seconds() {
		t.Errorf("%s: Summary.SimTime %v, mmt_runner_run_seconds_sum = %v", label, s.SimTime, sum)
	}
}

// TestPoolMetricsAndTrace drives a cold run and a warm restart through an
// instrumented pool and checks the metric counters and the recorded spans
// against what actually happened.
func TestPoolMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	task := cheapTask(t, "libsvm", 20000)

	reg := obs.NewRegistry()
	tr := span.NewTracer("runner-test", 64)
	p := newPool(t, context.Background(), Options{
		Workers: 2, CacheDir: dir, Metrics: reg, Tracer: tr,
	})
	if _, err := p.Do(task); err != nil {
		t.Fatal(err)
	}
	p.Close()

	snap := reg.Snapshot()
	summaryMatches(t, "cold", p.Summary(), snap)
	for name, want := range map[string]uint64{
		"mmt_runner_jobs_scheduled_total": 1,
		"mmt_runner_jobs_executed_total":  1,
		"mmt_runner_cache_misses_total":   1,
		"mmt_runner_cache_hits_total":     0,
		"mmt_runner_jobs_failed_total":    0,
	} {
		if snap[name] != want {
			t.Errorf("cold %s = %v, want %d", name, snap[name], want)
		}
	}

	execs := spansNamed(tr, "runner.exec")
	if len(execs) != 1 {
		t.Fatalf("cold run has %d runner.exec spans, want 1", len(execs))
	}
	if e := execs[0]; e.Attrs["name"] != task.Name() || e.Attrs["worker"] == "" || e.DurNS <= 0 {
		t.Errorf("exec span: %+v", e)
	}

	// Warm restart against the same cache directory: the job must be a
	// cache hit, traced as such, with nothing executed.
	reg2 := obs.NewRegistry()
	tr2 := span.NewTracer("runner-test", 64)
	p2 := newPool(t, context.Background(), Options{
		Workers: 1, CacheDir: dir, Metrics: reg2, Tracer: tr2,
	})
	if _, err := p2.Do(task); err != nil {
		t.Fatal(err)
	}
	p2.Close()

	snap2 := reg2.Snapshot()
	summaryMatches(t, "warm", p2.Summary(), snap2)
	for name, want := range map[string]uint64{
		"mmt_runner_cache_hits_total":    1,
		"mmt_runner_jobs_executed_total": 0,
	} {
		if snap2[name] != want {
			t.Errorf("warm %s = %v, want %d", name, snap2[name], want)
		}
	}
	if n := len(spansNamed(tr2, "runner.exec")); n != 0 {
		t.Errorf("warm run has %d runner.exec spans, want 0", n)
	}
	if c := spansNamed(tr2, "runner.cache"); len(c) != 1 || c[0].Attrs["local"] != "hit" {
		t.Errorf("warm cache spans = %+v, want one with local=hit", c)
	}

	// Queue/run timers observed something plausible.
	if snap["mmt_runner_run_seconds_count"] != uint64(1) {
		t.Errorf("run timer count = %v", snap["mmt_runner_run_seconds_count"])
	}
}

// TestUntracedJobsRootFreshTraces: with a Tracer set, jobs that carry no
// correlation id still land on the timeline, each in a trace of its own.
func TestUntracedJobsRootFreshTraces(t *testing.T) {
	tr := span.NewTracer("runner-test", 64)
	p := newPool(t, context.Background(), Options{Workers: 2, Tracer: tr})
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := p.Do(cheapTask(t, "libsvm", uint64(20000+64*i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	execs := spansNamed(tr, "runner.exec")
	if len(execs) != n {
		t.Fatalf("%d runner.exec spans, want %d", len(execs), n)
	}
	traces := map[string]bool{}
	for _, e := range execs {
		traces[e.TraceID] = true
	}
	if len(traces) != n {
		t.Errorf("exec spans share traces: %v", traces)
	}
	// Each job's other spans join its exec span's trace.
	for _, r := range tr.Records("") {
		if !traces[r.TraceID] {
			t.Errorf("span %s in trace %s has no exec span", r.Name, r.TraceID)
		}
	}
}

// TestPoolUninstrumented: a pool with no registry and no tracer runs on
// private instruments. (The Summary-count tests in runner_test.go run
// registry-free pools too.)
func TestPoolUninstrumented(t *testing.T) {
	p := newPool(t, context.Background(), Options{Workers: 1})
	if _, err := p.Do(cheapTask(t, "libsvm", 20000)); err != nil {
		t.Fatal(err)
	}
}
