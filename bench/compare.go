package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// wallClockUnits are the units of host-dependent metrics; their verdicts
// are refused between different machines.
var wallClockUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "insts/s": true, "jobs/s": true}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles with a verdict, then the traced runs' per-layer
// medians.
func compareFiles(w io.Writer, aPath, bPath, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("decoding %s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("-compare needs records on both sides (%d in %s, %d in %s)", len(a), aPath, len(b), bPath)
	}
	sameHost := true
	for _, rs := range [][]record{a, b} {
		for _, r := range rs {
			sameHost = sameHost && r.Host.sameMachine(a[0].Host)
		}
	}
	fmt.Fprintf(w, "A: %s (%d records, commit %s)\nB: %s (%d records, commit %s)\n",
		aPath, len(a), a[0].Host.Commit, bPath, len(b), b[0].Host.Commit)
	if !sameHost {
		fmt.Fprintln(w, "host fingerprints differ: wall-clock verdicts refused")
	}
	fmt.Fprintf(w, "\n%-12s %-17s %5s %34s %34s %7s  %s\n", "workload", "metric", "bound",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "verdict")
	for _, wl := range workloadsIn(a, b) {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, wl, m.Name, false), values(b, wl, m.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict(av, bv, m.Better == "lower", m.Bound)
			if !sameHost && wallClockUnits[m.Unit] {
				v = "refused (hosts differ)"
			}
			fmt.Fprintf(w, "%-12s %-17s %4.0f%% %34s %34s %+6.1f%%  %s\n", wl, m.Name, 100*m.Bound,
				summary(av), summary(bv), 100*ratio(median(bv)-median(av), median(av)), v)
		}
	}
	fmt.Fprintf(w, "\nper-layer medians of traced runs:\n%-12s %-28s %-12s %14s %14s %8s\n",
		"workload", "metric", "unit", "A", "B", "delta")
	for _, wl := range workloadsIn(a, b) {
		for _, d := range perLayer {
			av, bv := values(a, wl, d.name, true), values(b, wl, d.name, true)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			fmt.Fprintf(w, "%-12s %-28s %-12s %14.6g %14.6g %+7.1f%%\n", wl, d.name, d.unit, ma, mb, 100*ratio(mb-ma, ma))
		}
	}
	return nil
}

// verdict classifies B against A for one metric. The spread is each
// side's interquartile range as a share of its median.
//   - Spread above the bound: unresolved, unless every B run beats (or
//     trails) every A run.
//   - B's median worse by more than the bound: worse.
//   - B's median better by more than A's spread, winning at least 9 in 10
//     of all A-B pairs: improved.
//   - Otherwise unchanged.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	spreadA := relIQR(a)
	spread := math.Max(spreadA, relIQR(b))
	wins, losses := 0, 0
	for _, x := range a {
		for _, y := range b {
			if better(y, x) {
				wins++
			} else if better(x, y) {
				losses++
			}
		}
	}
	pairs := len(a) * len(b)
	worse := ratio(mb-ma, math.Abs(ma))
	if !lowerBetter {
		worse = -worse
	}
	if spread > bound {
		switch {
		case wins == pairs:
			return "improved"
		case losses == pairs:
			return "worse"
		}
		return fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*spread)
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > spreadA && 10*wins >= 9*pairs:
		return "improved"
	}
	return "unchanged"
}

func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}

// values collects one metric of one workload from the traced or untraced
// records.
func values(rs []record, workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func workloadsIn(a, b []record) []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range [][]record{a, b} {
		for _, r := range rs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}
