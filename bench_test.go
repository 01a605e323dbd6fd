// Package mmt_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§6). Each benchmark runs the
// corresponding experiment and reports the headline quantity as a custom
// metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The per-experiment mapping is recorded
// in DESIGN.md §4; EXPERIMENTS.md holds a captured run compared against
// the paper's numbers.
package mmt_test

import (
	"testing"

	"mmt/internal/core"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// profileInsts caps per-context instructions for the trace-profiling
// figures.
const profileInsts = 1_000_000

func BenchmarkFig1_InstructionSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure1(sim.NewSerial(), workloads.All(), profileInsts)
		if err != nil {
			b.Fatal(err)
		}
		var exec, fetchable float64
		for _, r := range rows {
			exec += r.ExecIdent
			fetchable += r.ExecIdent + r.FetchIdent
		}
		b.ReportMetric(exec/float64(len(rows)), "exec-ident-mean")
		b.ReportMetric(fetchable/float64(len(rows)), "fetchable-mean")
	}
}

func BenchmarkFig2_DivergenceLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure2(sim.NewSerial(), workloads.All(), profileInsts)
		if err != nil {
			b.Fatal(err)
		}
		// The paper's claim: all programs except equake and vortex have
		// >= 85% of divergences within 16 taken branches.
		within16 := 0
		for _, r := range rows {
			if r.Divergences > 0 && r.Cumulative[0] >= 0.85 {
				within16++
			}
		}
		b.ReportMetric(float64(within16), "apps-within16")
	}
}

func BenchmarkTable3_HardwareCost(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		h := core.EstimateHWCost(core.DefaultConfig(4))
		bits = h.TotalBits()
	}
	b.ReportMetric(float64(bits), "total-bits")
}

func benchSpeedups(b *testing.B, threads int) {
	for i := 0; i < b.N; i++ {
		_, gm, err := sim.Figure5Speedups(sim.NewSerial(), workloads.All(), threads)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gm.F, "geomean-F")
		b.ReportMetric(gm.FX, "geomean-FX")
		b.ReportMetric(gm.FXR, "geomean-FXR")
		b.ReportMetric(gm.Limit, "geomean-Limit")
	}
}

func BenchmarkFig5a_Speedup2T(b *testing.B) { benchSpeedups(b, 2) }
func BenchmarkFig5c_Speedup4T(b *testing.B) { benchSpeedups(b, 4) }

func BenchmarkFig5b_IdenticalIdentified(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure5b(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		var exec, regm float64
		for _, r := range rows {
			exec += r.ExecIdent
			regm += r.ExecIdentRegMerge
		}
		b.ReportMetric(exec/float64(len(rows)), "exec-ident-found")
		b.ReportMetric(regm/float64(len(rows)), "regmerge-found")
	}
}

func BenchmarkFig5d_FetchModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure5d(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		var merge, catchup float64
		for _, r := range rows {
			merge += r.Merge
			catchup += r.Catchup
		}
		b.ReportMetric(merge/float64(len(rows)), "merge-mean")
		b.ReportMetric(catchup/float64(len(rows)), "catchup-mean")
	}
}

func BenchmarkFig6_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure6(sim.NewSerial(), workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		var maxOverhead float64
		for _, r := range rows {
			if r.SMT4 > 0 {
				ratios = append(ratios, r.MMT4/r.SMT4)
			}
			if r.OverheadFrac > maxOverhead {
				maxOverhead = r.OverheadFrac
			}
		}
		b.ReportMetric(sim.Geomean(ratios), "mmt4-vs-smt4-energy")
		b.ReportMetric(maxOverhead, "max-overhead-frac")
	}
}

func BenchmarkFig7a_FHBSizePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure7a(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		// Geomean speedup at the smallest and largest FHB.
		var small, large []float64
		for _, r := range rows {
			small = append(small, r.Speedups[0])
			large = append(large, r.Speedups[len(r.Speedups)-1])
		}
		b.ReportMetric(sim.Geomean(small), "geomean-fhb8")
		b.ReportMetric(sim.Geomean(large), "geomean-fhb128")
	}
}

func BenchmarkFig7b_LSPorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp, err := sim.Figure7b(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp[0], "geomean-2ports")
		b.ReportMetric(sp[len(sp)-1], "geomean-12ports")
	}
}

func BenchmarkFig7c_FHBSizeModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.Figure7c(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		var m8, m128 float64
		for _, r := range rows {
			m8 += r.Merge[0]
			m128 += r.Merge[len(r.Merge)-1]
		}
		b.ReportMetric(m8/float64(len(rows)), "merge-mean-fhb8")
		b.ReportMetric(m128/float64(len(rows)), "merge-mean-fhb128")
	}
}

func BenchmarkFig7d_FetchWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp, err := sim.Figure7d(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp[0], "geomean-width4")
		b.ReportMetric(sp[len(sp)-1], "geomean-width32")
	}
}

func BenchmarkSec63_RemergeDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := sim.RemergeWithin512(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, v := range m {
			total += v
		}
		b.ReportMetric(total/float64(len(m)), "within512-mean")
	}
}

// BenchmarkCoreThroughput measures raw simulator speed (simulated
// instructions per host second) — an engineering metric, not a paper
// artifact.
func BenchmarkCoreThroughput(b *testing.B) {
	app, ok := workloads.ByName("water-ns")
	if !ok {
		b.Fatal("missing app")
	}
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(app, sim.PresetMMTFXR, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Stats.TotalCommitted()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// --- Extension and ablation benchmarks (beyond the paper's figures) ---

func BenchmarkExtMP_MessagePassing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.ExtensionMP(sim.NewSerial())
		if err != nil {
			b.Fatal(err)
		}
		var g []float64
		for _, r := range rows {
			g = append(g, r.Speedup)
		}
		b.ReportMetric(sim.Geomean(g), "geomean-speedup")
	}
}

func BenchmarkAblationSyncPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gms, err := sim.AblationSyncPolicy(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gms[0], "geomean-fhb")
		b.ReportMetric(gms[1], "geomean-hints")
		b.ReportMetric(gms[2], "geomean-none")
	}
}

func BenchmarkAblationLVIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gms, err := sim.AblationLVIP(sim.NewSerial(), workloads.All(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gms[0], "geomean-predict")
		b.ReportMetric(gms[1], "geomean-off")
		b.ReportMetric(gms[2], "geomean-oracle")
	}
}

func BenchmarkExtCoschedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sim.ExtensionCoschedule(sim.NewSerial())
		if err != nil {
			b.Fatal(err)
		}
		var g []float64
		for _, r := range rows {
			g = append(g, r.Speedup)
		}
		b.ReportMetric(sim.Geomean(g), "geomean-speedup")
	}
}
