package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// specFile is BENCHMARK.json as the tests read it.
type specFile struct {
	Workloads []struct{ Name string }               `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload to a smoke size: 2 apps, 40 jobs (a study
// budget of 20 points), two cheap artifacts, one pass (two when traced:
// one untraced, one traced).
func tiny(workload string, trace bool) config {
	c := config{workload: workload, seed: 7, trace: trace, root: "..",
		apps: 2, jobs: 40, only: "fig1,sec63", passes: 1}
	if trace {
		c.passes = 2
	}
	return c
}

// result is the final JSON line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload and returns its record and printed output.
func runTiny(t *testing.T, cfg config) (*record, string, result) {
	t.Helper()
	var out bytes.Buffer
	rec, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := printResult(&out, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return rec, out.String(), res
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// size: each prints every metric BENCHMARK.json names, with its unit, and
// nothing fails or disagrees with its reference.
func TestWorkloadsSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadTable))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				rec, out, res := runTiny(t, tiny(w.Name, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d (first error %q)\n%s",
						res.Correct, res.Failed, res.Attempted, rec.FirstErr, out)
				}
				if !strings.Contains(out, "\nerror_rate 0 fraction\n") {
					t.Errorf("error_rate is not 0:\n%s", out)
				}
				want := spec.EndToEnd
				if trace {
					want = nil
					for _, m := range spec.PerLayer {
						want = append(want, struct{ Name, Unit string }{m.Name, m.Unit})
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out, "\n"+m.Name+" ") || !strings.Contains(out, " "+m.Unit) {
						t.Errorf("%s (%s) not printed as 'name value unit'", m.Name, m.Unit)
					}
				}
				if !trace {
					for _, m := range spec.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("%s = %g; end-to-end metrics must be positive", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				// Spans below the roots account for nearly all of the
				// traced passes' time. paper-eval's root stands for the
				// pool's workers, whose idle time at artifact barriers no
				// span sees; at smoke size it is a larger share than in a
				// full pass.
				least := 0.95
				if w.Name == "paper-eval" {
					least = 0.8
				}
				if f := res.Metrics["trace.accounted_frac"].Value; f < least || f > 1 {
					t.Errorf("trace.accounted_frac = %g, want in [%g, 1]", f, least)
				}
				checkSpansFile(t, rec, w.Name)
			})
		}
	}
}

// TestSeededMismatchIsWrong corrupts one reference entry and expects the
// run to report exactly that experiment as wrong.
func TestSeededMismatchIsWrong(t *testing.T) {
	ref, err := loadReference("..")
	if err != nil {
		t.Fatal(err)
	}
	key, err := sim.Task{App: workloads.All()[0], Preset: sim.PresetMMTFXR, Threads: 4}.Key()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := ref.byKey[key]
	if !ok {
		t.Fatalf("reference %s lacks %s", ref.name, key)
	}
	tampered := &reference{name: ref.name, byKey: make(map[string]refEntry, len(ref.byKey))}
	for k, v := range ref.byKey {
		tampered.byKey[k] = v
	}
	e.cycles++
	tampered.byKey[key] = e
	cfg := tiny("core-mmt", false)
	cfg.ref = tampered
	rec, out, res := runTiny(t, cfg)
	if rec.Wrong != 1 || res.Correct || res.Failed != 1 {
		t.Fatalf("wrong=%d correct=%v failed=%d, want one wrong experiment\n%s", rec.Wrong, res.Correct, res.Failed, out)
	}
	if !strings.Contains(rec.FirstErr, "/MMT-FXR/4T") {
		t.Errorf("first error %q does not name the tampered task", rec.FirstErr)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	flat := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	wide := []float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		var out []float64
		for _, v := range xs {
			out = append(out, v*f)
		}
		return out
	}
	for _, tc := range []struct {
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{base, scale(base, 1), true, "unchanged"},
		{base, scale(base, 1.2), true, "worse"},
		{base, scale(base, 0.8), true, "improved"},
		{base, scale(base, 1.2), false, "improved"},
		// A uniform shift within the bound is no verdict, however tight
		// the spreads.
		{flat, scale(flat, 1.001), true, "unchanged"},
		{base, scale(base, 1.05), true, "unchanged"},
		{base, wide, true, "unresolved"},
		// Spreads above the bound still resolve when every run of one side
		// beats every run of the other.
		{wide, scale(wide, 10), true, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.lowerBetter, 0.1); !strings.HasPrefix(got, tc.want) {
			t.Errorf("verdict(%v, %v, lower=%v) = %q, want %s", tc.a, tc.b, tc.lowerBetter, got, tc.want)
		}
	}
}

// TestCompareRefusesAcrossHosts compares records from two machines:
// wall-clock verdicts are refused, the allocation count still compared.
func TestCompareRefusesAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			rec := &record{Workload: "core-mmt", Host: host{CPU: cpu, NProc: 2}, Metrics: []metric{
				{Name: "wall_s", Value: 5 + 0.01*float64(i), Unit: "s"},
				{Name: "allocs_per_kinst", Value: 8500, Unit: "allocs"},
			}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.json", "cpu A"), write("b.json", "cpu B")
	var out bytes.Buffer
	if err := compareFiles(&out, a, b, "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "host fingerprints differ") {
		t.Errorf("no host warning:\n%s", s)
	}
	for _, line := range strings.Split(s, "\n") {
		switch {
		case strings.Contains(line, " wall_s ") && !strings.Contains(line, "refused"):
			t.Errorf("wall_s verdict not refused: %s", line)
		case strings.Contains(line, " allocs_per_kinst ") && !strings.Contains(line, "unchanged"):
			t.Errorf("allocs_per_kinst not compared: %s", line)
		}
	}
}

// checkSpansFile writes a traced run's spans as JSON lines and reads them
// back; a core-mmt or serve-fleet run must show every layer its work
// passes through.
func checkSpansFile(t *testing.T, rec *record, workload string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.spans.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		names[s.Name] = true
	}
	want := map[string][]string{
		"core-mmt":    {"bench.pass", "sim.task", "workloads.build", "core.run", "power.energy", "codec.encode", "codec.decode"},
		"serve-fleet": {"bench.clients", "dse.plan", "client.job", "queue.wait", "runner.run", "core.run", "codec.decode"},
	}
	for _, n := range want[workload] {
		if !names[n] {
			t.Errorf("no %s span in %v", n, names)
		}
	}
}
