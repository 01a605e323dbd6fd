package sim

import (
	"mmt/internal/core"
	"mmt/internal/trace"
	"mmt/internal/workloads"
)

// This file implements one driver per evaluation artifact. Each returns
// structured rows so cmd/mmtbench, the benchmark harness and EXPERIMENTS.md
// share a single source of truth.
//
// Every driver follows the same two-phase shape: enumerate the simulation
// points it will need and announce them to the executor with Schedule (a
// parallel executor starts them all immediately), then assemble the rows in
// a fixed order by collecting each outcome with Do. The assembly order never
// depends on completion order, so the output is byte-identical whether the
// executor is serial or parallel.

// ---------------------------------------------------------------- Fig. 1

// Fig1Row is one application's instruction-sharing breakdown (§3.2).
type Fig1Row struct {
	App        string
	ExecIdent  float64
	FetchIdent float64 // fetch-identical but not execute-identical
	NotIdent   float64
}

// profileTasks enumerates the two-context trace-alignment points shared by
// Fig. 1 and Fig. 2.
func profileTasks(apps []workloads.App, maxInsts int) []Task {
	tasks := make([]Task, 0, len(apps))
	for _, a := range apps {
		tasks = append(tasks, Task{App: a, Threads: 2, Profile: true, MaxInsts: maxInsts})
	}
	return tasks
}

// Figure1 profiles instruction redundancy for every application with two
// contexts, using the trace-alignment methodology.
func Figure1(ex Exec, apps []workloads.App, maxInsts int) ([]Fig1Row, error) {
	ex.Schedule(profileTasks(apps, maxInsts)...)
	var rows []Fig1Row
	for _, a := range apps {
		prof, err := profilePoint(ex, a, maxInsts)
		if err != nil {
			return nil, err
		}
		x, f, n := prof.Fractions()
		rows = append(rows, Fig1Row{App: a.Name, ExecIdent: x, FetchIdent: f, NotIdent: n})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 2

// Fig2Row is one application's divergence-length-difference histogram,
// cumulative by bucket (≤16, ≤32, … taken branches), as fractions.
type Fig2Row struct {
	App         string
	Cumulative  [6]float64 // ≤16, ≤32, ≤64, ≤128, ≤256, ≤512
	Divergences uint64
}

// Figure2 measures the difference in length of divergent execution paths.
func Figure2(ex Exec, apps []workloads.App, maxInsts int) ([]Fig2Row, error) {
	ex.Schedule(profileTasks(apps, maxInsts)...)
	var rows []Fig2Row
	for _, a := range apps {
		prof, err := profilePoint(ex, a, maxInsts)
		if err != nil {
			return nil, err
		}
		row := Fig2Row{App: a.Name, Divergences: prof.Divergences}
		for i, b := range trace.DistBuckets {
			row.Cumulative[i] = prof.DiffWithin(b)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ------------------------------------------------------- Fig. 5(a)/(c)

// SpeedupRow is one application's speedups over Base for each MMT preset
// at one thread count.
type SpeedupRow struct {
	App   string
	F     float64
	FX    float64
	FXR   float64
	Limit float64
}

// Figure5Speedups runs every preset for every app at the given thread
// count; Fig. 5(a) is threads=2, Fig. 5(c) is threads=4.
func Figure5Speedups(ex Exec, apps []workloads.App, threads int) ([]SpeedupRow, SpeedupRow, error) {
	var tasks []Task
	for _, a := range apps {
		for _, p := range Presets() {
			tasks = append(tasks, Task{App: a, Preset: p, Threads: threads})
		}
	}
	ex.Schedule(tasks...)

	var rows []SpeedupRow
	for _, a := range apps {
		base, err := runPoint(ex, a, PresetBase, threads, nil)
		if err != nil {
			return nil, SpeedupRow{}, err
		}
		row := SpeedupRow{App: a.Name}
		for _, p := range []Preset{PresetMMTF, PresetMMTFX, PresetMMTFXR, PresetLimit} {
			r, err := runPoint(ex, a, p, threads, nil)
			if err != nil {
				return nil, SpeedupRow{}, err
			}
			s := Speedup(base, r)
			switch p {
			case PresetMMTF:
				row.F = s
			case PresetMMTFX:
				row.FX = s
			case PresetMMTFXR:
				row.FXR = s
			case PresetLimit:
				row.Limit = s
			}
		}
		rows = append(rows, row)
	}
	gm := SpeedupRow{App: "geomean"}
	var f, fx, fxr, lim []float64
	for _, r := range rows {
		f = append(f, r.F)
		fx = append(fx, r.FX)
		fxr = append(fxr, r.FXR)
		lim = append(lim, r.Limit)
	}
	gm.F, gm.FX, gm.FXR, gm.Limit = Geomean(f), Geomean(fx), Geomean(fxr), Geomean(lim)
	return rows, gm, nil
}

// ---------------------------------------------------------------- Fig. 5(b)

// Fig5bRow is the fraction of committed per-thread instructions the MMT
// hardware identified in each category.
type Fig5bRow struct {
	App               string
	ExecIdent         float64
	ExecIdentRegMerge float64
	FetchIdent        float64
	NotIdent          float64
}

// fxrTasks enumerates the single MMT-FXR point per app that Fig. 5(b),
// Fig. 5(d) and §6.3 share.
func fxrTasks(apps []workloads.App, threads int) []Task {
	tasks := make([]Task, 0, len(apps))
	for _, a := range apps {
		tasks = append(tasks, Task{App: a, Preset: PresetMMTFXR, Threads: threads})
	}
	return tasks
}

// Figure5b runs MMT-FXR and reports the identified-identical breakdown.
func Figure5b(ex Exec, apps []workloads.App, threads int) ([]Fig5bRow, error) {
	ex.Schedule(fxrTasks(apps, threads)...)
	var rows []Fig5bRow
	for _, a := range apps {
		r, err := runPoint(ex, a, PresetMMTFXR, threads, nil)
		if err != nil {
			return nil, err
		}
		x, xr, f, n := r.Stats.IdenticalFractions()
		rows = append(rows, Fig5bRow{
			App: a.Name, ExecIdent: x, ExecIdentRegMerge: xr, FetchIdent: f, NotIdent: n,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 5(d)

// Fig5dRow is the instruction breakdown by fetch mode.
type Fig5dRow struct {
	App     string
	Merge   float64
	Detect  float64
	Catchup float64
}

// Figure5d runs MMT-FXR and reports fetch-mode residency.
func Figure5d(ex Exec, apps []workloads.App, threads int) ([]Fig5dRow, error) {
	ex.Schedule(fxrTasks(apps, threads)...)
	var rows []Fig5dRow
	for _, a := range apps {
		r, err := runPoint(ex, a, PresetMMTFXR, threads, nil)
		if err != nil {
			return nil, err
		}
		m, d, c := r.Stats.FetchModeFractions()
		rows = append(rows, Fig5dRow{App: a.Name, Merge: m, Detect: d, Catchup: c})
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Row is one application's energy per job for the four bars of Fig. 6,
// normalized to SMT-2T, with the MMT-4T breakdown.
type Fig6Row struct {
	App  string
	SMT2 float64
	MMT2 float64
	SMT4 float64
	MMT4 float64
	// Breakdown fractions of the MMT-4T bar.
	CacheFrac    float64
	OverheadFrac float64
	OtherFrac    float64
}

// Figure6 compares energy per job across SMT/MMT at 2 and 4 threads.
func Figure6(ex Exec, apps []workloads.App) ([]Fig6Row, error) {
	var tasks []Task
	for _, a := range apps {
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			for _, n := range []int{2, 4} {
				tasks = append(tasks, Task{App: a, Preset: p, Threads: n})
			}
		}
	}
	ex.Schedule(tasks...)

	var rows []Fig6Row
	for _, a := range apps {
		get := func(p Preset, n int) (*Result, error) { return runPoint(ex, a, p, n, nil) }
		smt2, err := get(PresetBase, 2)
		if err != nil {
			return nil, err
		}
		mmt2, err := get(PresetMMTFXR, 2)
		if err != nil {
			return nil, err
		}
		smt4, err := get(PresetBase, 4)
		if err != nil {
			return nil, err
		}
		mmt4, err := get(PresetMMTFXR, 4)
		if err != nil {
			return nil, err
		}
		norm := smt2.EnergyPerJob
		row := Fig6Row{
			App:  a.Name,
			SMT2: 1.0,
			MMT2: mmt2.EnergyPerJob / norm,
			SMT4: smt4.EnergyPerJob / norm,
			MMT4: mmt4.EnergyPerJob / norm,
		}
		tot := mmt4.Energy.Total()
		if tot > 0 {
			row.CacheFrac = mmt4.Energy.Cache / tot
			row.OverheadFrac = mmt4.Energy.Overhead / tot
			row.OtherFrac = mmt4.Energy.Other / tot
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 7

// FHBSizes is the sweep of Fig. 7(a)/(c).
var FHBSizes = []int{8, 16, 32, 64, 128}

// fhbMutate returns the Fig. 7(a)/(c) configuration hook for one size.
func fhbMutate(size int) func(*core.Config) {
	return (&ConfigOverride{FHBSize: size}).apply
}

// Fig7aRow is one application's speedup over Base per FHB size.
type Fig7aRow struct {
	App      string
	Speedups []float64 // parallel to FHBSizes
}

// Figure7a sweeps the Fetch History Buffer size.
func Figure7a(ex Exec, apps []workloads.App, threads int) ([]Fig7aRow, error) {
	var tasks []Task
	for _, a := range apps {
		tasks = append(tasks, Task{App: a, Preset: PresetBase, Threads: threads})
		for _, size := range FHBSizes {
			tasks = append(tasks, Task{App: a, Preset: PresetMMTFXR, Threads: threads, Mutate: fhbMutate(size)})
		}
	}
	ex.Schedule(tasks...)

	var rows []Fig7aRow
	for _, a := range apps {
		base, err := runPoint(ex, a, PresetBase, threads, nil)
		if err != nil {
			return nil, err
		}
		row := Fig7aRow{App: a.Name}
		for _, size := range FHBSizes {
			r, err := runPoint(ex, a, PresetMMTFXR, threads, fhbMutate(size))
			if err != nil {
				return nil, err
			}
			row.Speedups = append(row.Speedups, Speedup(base, r))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7cRow is the fetch-mode residency per FHB size.
type Fig7cRow struct {
	App     string
	Merge   []float64
	Detect  []float64
	Catchup []float64
}

// Figure7c sweeps the FHB size and reports mode residency.
func Figure7c(ex Exec, apps []workloads.App, threads int) ([]Fig7cRow, error) {
	var tasks []Task
	for _, a := range apps {
		for _, size := range FHBSizes {
			tasks = append(tasks, Task{App: a, Preset: PresetMMTFXR, Threads: threads, Mutate: fhbMutate(size)})
		}
	}
	ex.Schedule(tasks...)

	var rows []Fig7cRow
	for _, a := range apps {
		row := Fig7cRow{App: a.Name}
		for _, size := range FHBSizes {
			r, err := runPoint(ex, a, PresetMMTFXR, threads, fhbMutate(size))
			if err != nil {
				return nil, err
			}
			m, d, c := r.Stats.FetchModeFractions()
			row.Merge = append(row.Merge, m)
			row.Detect = append(row.Detect, d)
			row.Catchup = append(row.Catchup, c)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LSPortCounts is the sweep of Fig. 7(b); MSHRs scale with the ports, as
// in the paper.
var LSPortCounts = []int{2, 4, 6, 8, 12}

// lsPortMutate returns the Fig. 7(b) configuration hook for one port
// count (MSHRs scale with the ports).
func lsPortMutate(ports int) func(*core.Config) {
	return (&ConfigOverride{LSPorts: ports}).apply
}

// Figure7b sweeps load/store ports and returns the geomean MMT speedup
// over Base at each point.
func Figure7b(ex Exec, apps []workloads.App, threads int) ([]float64, error) {
	var tasks []Task
	for _, ports := range LSPortCounts {
		for _, a := range apps {
			for _, p := range []Preset{PresetBase, PresetMMTFXR} {
				tasks = append(tasks, Task{App: a, Preset: p, Threads: threads, Mutate: lsPortMutate(ports)})
			}
		}
	}
	ex.Schedule(tasks...)

	var out []float64
	for _, ports := range LSPortCounts {
		mutate := lsPortMutate(ports)
		var sp []float64
		for _, a := range apps {
			base, err := runPoint(ex, a, PresetBase, threads, mutate)
			if err != nil {
				return nil, err
			}
			r, err := runPoint(ex, a, PresetMMTFXR, threads, mutate)
			if err != nil {
				return nil, err
			}
			sp = append(sp, Speedup(base, r))
		}
		out = append(out, Geomean(sp))
	}
	return out, nil
}

// FetchWidths is the sweep of Fig. 7(d).
var FetchWidths = []int{4, 8, 16, 32}

// fetchWidthMutate returns the Fig. 7(d) configuration hook for one width.
func fetchWidthMutate(w int) func(*core.Config) {
	return (&ConfigOverride{FetchWidth: w}).apply
}

// Figure7d sweeps the fetch width and returns the geomean MMT speedup over
// Base at each point.
func Figure7d(ex Exec, apps []workloads.App, threads int) ([]float64, error) {
	var tasks []Task
	for _, w := range FetchWidths {
		for _, a := range apps {
			for _, p := range []Preset{PresetBase, PresetMMTFXR} {
				tasks = append(tasks, Task{App: a, Preset: p, Threads: threads, Mutate: fetchWidthMutate(w)})
			}
		}
	}
	ex.Schedule(tasks...)

	var out []float64
	for _, w := range FetchWidths {
		mutate := fetchWidthMutate(w)
		var sp []float64
		for _, a := range apps {
			base, err := runPoint(ex, a, PresetBase, threads, mutate)
			if err != nil {
				return nil, err
			}
			r, err := runPoint(ex, a, PresetMMTFXR, threads, mutate)
			if err != nil {
				return nil, err
			}
			sp = append(sp, Speedup(base, r))
		}
		out = append(out, Geomean(sp))
	}
	return out, nil
}

// ---------------------------------------------------------------- §6.3

// RemergeWithin512 runs MMT-FXR and returns the fraction of remerges found
// within 512 taken branches, per app (the paper reports ~90% overall).
func RemergeWithin512(ex Exec, apps []workloads.App, threads int) (map[string]float64, error) {
	ex.Schedule(fxrTasks(apps, threads)...)
	out := make(map[string]float64, len(apps))
	for _, a := range apps {
		r, err := runPoint(ex, a, PresetMMTFXR, threads, nil)
		if err != nil {
			return nil, err
		}
		out[a.Name] = r.Stats.RemergeWithin(512)
	}
	return out, nil
}

// ------------------------------------------------- Extension: MP suite

// MPRow is one message-passing application's result (the paper lists this
// class as future work in §7; this is the repository's extension study).
type MPRow struct {
	App     string
	Ranks   int
	Speedup float64 // MMT-FXR over Base
	Merge   float64 // MERGE-mode residency under MMT-FXR
	ExecId  float64 // execute-identical fraction under MMT-FXR
}

// mpRanks returns the rank count for one message-passing app: pairwise
// kernels at 2, the all-reduce at 4.
func mpRanks(a workloads.App) int {
	if a.Name == "allreduce-mp" {
		return 4
	}
	return 2
}

// ExtensionMP runs the message-passing suite.
func ExtensionMP(ex Exec) ([]MPRow, error) {
	apps := workloads.MP()
	var tasks []Task
	for _, a := range apps {
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			tasks = append(tasks, Task{App: a, Preset: p, Threads: mpRanks(a)})
		}
	}
	ex.Schedule(tasks...)

	var rows []MPRow
	for _, a := range apps {
		ranks := mpRanks(a)
		base, err := runPoint(ex, a, PresetBase, ranks, nil)
		if err != nil {
			return nil, err
		}
		fxr, err := runPoint(ex, a, PresetMMTFXR, ranks, nil)
		if err != nil {
			return nil, err
		}
		m, _, _ := fxr.Stats.FetchModeFractions()
		x, xr, _, _ := fxr.Stats.IdenticalFractions()
		rows = append(rows, MPRow{
			App: a.Name, Ranks: ranks,
			Speedup: Speedup(base, fxr), Merge: m, ExecId: x + xr,
		})
	}
	return rows, nil
}

// --------------------------------------------- Extension: thread scaling

// ScalingRow is the geomean MMT-FXR speedup over Base at each thread
// count (the paper evaluates 2 and 4; the curve shows the trend).
type ScalingRow struct {
	Threads int
	Geomean float64
}

// ExtensionScaling sweeps hardware thread count 1–4 over all sixteen
// applications.
func ExtensionScaling(ex Exec, apps []workloads.App) ([]ScalingRow, error) {
	var tasks []Task
	for n := 1; n <= 4; n++ {
		for _, a := range apps {
			for _, p := range []Preset{PresetBase, PresetMMTFXR} {
				tasks = append(tasks, Task{App: a, Preset: p, Threads: n})
			}
		}
	}
	ex.Schedule(tasks...)

	var rows []ScalingRow
	for n := 1; n <= 4; n++ {
		var sp []float64
		for _, a := range apps {
			base, err := runPoint(ex, a, PresetBase, n, nil)
			if err != nil {
				return nil, err
			}
			fxr, err := runPoint(ex, a, PresetMMTFXR, n, nil)
			if err != nil {
				return nil, err
			}
			sp = append(sp, Speedup(base, fxr))
		}
		rows = append(rows, ScalingRow{Threads: n, Geomean: Geomean(sp)})
	}
	return rows, nil
}
