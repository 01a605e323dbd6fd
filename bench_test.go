// Package mmt_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§6), plus the extensions
// and ablations: one sub-benchmark of BenchmarkArtifacts per mmtbench
// artifact, each reporting its summary quantities as custom metrics named
// <table>/<row>/<column>, so
//
//	go test -run '^$' -bench=. -benchmem
//
// reproduces the whole evaluation. The per-experiment mapping is recorded
// in DESIGN.md §4; EXPERIMENTS.md holds a captured run compared against
// the paper's numbers.
package mmt_test

import (
	"testing"

	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// BenchmarkArtifacts simulates each artifact of the mmtbench report on a
// serial executor (BenchmarkArtifacts/<-only name>) and reports its
// geomean, average, summary, total and sweep quantities by name.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range sim.Artifacts {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := a.Tables(sim.NewSerial(), workloads.All())
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					for _, q := range t.Quantities() {
						if q.Summary {
							b.ReportMetric(q.Value, q.Name)
						}
					}
				}
			}
		})
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

// BenchmarkProfileThroughput measures the trace-alignment profiler (trace
// records captured and aligned per host second) on twolf, the kernel with
// the most divergences, as Fig. 1 profiles it.
func BenchmarkProfileThroughput(b *testing.B) {
	app, ok := workloads.ByName("twolf")
	if !ok {
		b.Fatal("missing app")
	}
	task := sim.Task{App: app, Threads: 2, Profile: true, MaxInsts: sim.ProfileInsts}
	var records uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := task.Execute()
		if err != nil {
			b.Fatal(err)
		}
		records += out.Profile.Total()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
