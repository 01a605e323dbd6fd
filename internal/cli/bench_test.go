package cli

import (
	"io"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"mmt/internal/core"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/workloads"
)

// recordingExec answers every task with a synthetic outcome, so the
// artifact drivers run without simulating anything, and records what they
// ask of an executor: the tasks each artifact schedules and the distinct
// tasks it collects, in first-Do order.
type recordingExec struct {
	t         *testing.T
	artifact  string
	scheduled map[string]bool // keys the current artifact has scheduled
	seen      map[string]bool
	collected []BenchEntry // distinct tasks in first-Do order
}

func newRecordingExec(t *testing.T) *recordingExec {
	return &recordingExec{t: t, seen: map[string]bool{}}
}

// begin starts a new artifact: its Do calls may only collect what it
// schedules itself.
func (r *recordingExec) begin(artifact string) {
	r.artifact, r.scheduled = artifact, map[string]bool{}
}

func (r *recordingExec) key(t sim.Task) string {
	k, err := t.Key()
	if err != nil {
		r.t.Fatalf("%s: keying %s: %v", r.artifact, t.Name(), err)
	}
	return k
}

func (r *recordingExec) Schedule(tasks ...sim.Task) error {
	for _, t := range tasks {
		r.scheduled[r.key(t)] = true
	}
	return nil
}

func (r *recordingExec) Do(t sim.Task) (*sim.Outcome, error) {
	k := r.key(t)
	if !r.scheduled[k] {
		r.t.Errorf("%s collects %s without scheduling it", r.artifact, t.Name())
	}
	if !r.seen[k] {
		r.seen[k] = true
		r.collected = append(r.collected, BenchEntry{Name: t.Name(), Key: k})
	}
	if t.Profile {
		return &sim.Outcome{Profile: &trace.Profile{}}, nil
	}
	cycles := uint64(1000 + len(r.collected))
	return &sim.Outcome{Result: &sim.Result{Stats: &core.Stats{Cycles: cycles}}}, nil
}

// newestBench reads the BENCH_<n>.json with the highest n at the repo root.
func newestBench(t *testing.T) (string, BenchFile) {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_<n>.json at the repo root (%v)", err)
	}
	num := regexp.MustCompile(`BENCH_(\d+)\.json$`)
	newest, best := "", -1
	for _, p := range paths {
		if m := num.FindStringSubmatch(p); m != nil {
			if n, _ := strconv.Atoi(m[1]); n > best {
				newest, best = p, n
			}
		}
	}
	f, err := readBenchFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	return newest, f
}

// TestArtifactsCollectInBenchOrder pins what the full report asks of its
// executor. The trajectory gate pairs BENCH rows by name#n in collection
// order, so the distinct tasks, in first-Do order, must be the newest BENCH
// file's rows; and the pool queues work in Schedule order, so no artifact
// may collect a task it did not schedule first.
func TestArtifactsCollectInBenchOrder(t *testing.T) {
	rec := newRecordingExec(t)
	for _, name := range artifactNames() {
		rec.begin(name)
		if err := writeReport(rec, io.Discard, map[string]bool{name: true}, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	path, want := newestBench(t)
	if len(rec.collected) != len(want.Experiments) {
		t.Errorf("collected %d distinct tasks, %s has %d rows", len(rec.collected), path, len(want.Experiments))
	}
	for i := range min(len(rec.collected), len(want.Experiments)) {
		got, w := rec.collected[i], want.Experiments[i]
		if got.Name != w.Name || got.Key != w.Key {
			t.Fatalf("task %d: collected %s (%.12s), %s row is %s (%.12s)", i, got.Name, got.Key, path, w.Name, w.Key)
		}
	}
}

// TestQuantityNames: every cell of the full report has a quantity name
// that is unique, holds no whitespace (benchmark metric units may not) and
// resolves through sim.Lookup to the cell's value.
func TestQuantityNames(t *testing.T) {
	rec := newRecordingExec(t)
	var all []*sim.Table
	for _, a := range sim.Artifacts {
		rec.begin(a.Name)
		ts, err := a.Tables(rec, workloads.All())
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		all = append(all, ts...)
	}
	seen := map[string]bool{}
	for _, tb := range all {
		for _, q := range tb.Quantities() {
			if seen[q.Name] {
				t.Errorf("quantity %s named twice", q.Name)
			}
			seen[q.Name] = true
			if strings.IndexFunc(q.Name, unicode.IsSpace) >= 0 || strings.Count(q.Name, "/") != 2 {
				t.Errorf("quantity %q is not <table>/<row>/<column> without whitespace", q.Name)
			}
			if v, ok := sim.Lookup(all, q.Name); !ok || math.Float64bits(v) != math.Float64bits(q.Value) {
				t.Errorf("Lookup(%s) = %v, %v; want %v", q.Name, v, ok, q.Value)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("the report has no quantities")
	}
}
