package sim

import (
	"fmt"
	"strconv"

	"mmt/internal/core"
	"mmt/internal/trace"
	"mmt/internal/workloads"
)

// This file implements one driver per evaluation artifact. Each returns a
// Table, so cmd/mmtbench, mmtprofile, the benchmark harness and the tests
// read the same named quantities and print them with one renderer.
//
// Every driver follows the same two-phase shape: enumerate the simulation
// points it will need and announce them to the executor with Schedule (a
// parallel executor starts them all immediately), then assemble the rows in
// a fixed order by collecting each outcome with Do. The assembly order never
// depends on completion order, so the output is byte-identical whether the
// executor is serial or parallel. Every speedup table comes from one grid
// loop, speedups.

// driver simulates one table through an executor.
type driver func(ex Exec, apps []workloads.App) (*Table, error)

// Artifact is one section of the mmtbench report: its -only name and the
// drivers of its tables.
type Artifact struct {
	Name    string
	drivers []driver
}

func artifact(name string, ds ...driver) Artifact { return Artifact{Name: name, drivers: ds} }

// Tables simulates the artifact's tables through ex, in report order.
func (a Artifact) Tables(ex Exec, apps []workloads.App) ([]*Table, error) {
	var ts []*Table
	for _, d := range a.drivers {
		t, err := d(ex, apps)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// profileInsts caps per-context instructions for the report's Figs. 1–2.
const profileInsts = 1_000_000

// Artifacts is the mmtbench report, in output order.
var Artifacts = []Artifact{
	artifact("table3", table3),
	artifact("fig1", func(ex Exec, apps []workloads.App) (*Table, error) { return Figure1(ex, apps, profileInsts) }),
	artifact("fig2", func(ex Exec, apps []workloads.App) (*Table, error) { return Figure2(ex, apps, profileInsts) }),
	artifact("fig5a", figure5("fig5a", 2)),
	artifact("fig5b", figure5b),
	artifact("fig5c", figure5("fig5c", 4)),
	artifact("fig5d", figure5d),
	artifact("fig6", figure6),
	artifact("fig7a", figure7a),
	artifact("fig7b", figure7b),
	artifact("fig7c", figure7c),
	artifact("fig7d", figure7d),
	artifact("mp", extensionMP),
	artifact("cosched", extensionCoschedule),
	artifact("diversity", extensionDiversity),
	artifact("scaling", extensionScaling),
	artifact("ablations", studyDrivers()...),
	artifact("sec63", remergeWithin512),
}

// ---------------------------------------------------------------- points

// point is one standard timing run of an application: a preset at a
// thread count, under an optional configuration hook.
type point struct {
	preset  Preset
	threads int
	mutate  func(*core.Config)
}

func (pt point) task(a workloads.App) Task {
	return Task{App: a, Preset: pt.preset, Threads: pt.threads, Mutate: pt.mutate}
}

// runPoint collects one timing point through an executor. Every Fig. 5–7
// and ablation run goes through it.
func runPoint(ex Exec, t Task) (*Result, error) {
	out, err := ex.Do(t)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// collect schedules tasks, then collects their results in the same order.
func collect(ex Exec, tasks []Task) ([]*Result, error) {
	ex.Schedule(tasks...)
	rs := make([]*Result, len(tasks))
	for i, t := range tasks {
		r, err := runPoint(ex, t)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	return rs, nil
}

// appRows appends one row per app to t: cells of the app's results at pts.
func appRows(ex Exec, apps []workloads.App, t *Table, pts []point, cells func(rs []*Result) []float64) (*Table, error) {
	var tasks []Task
	for _, a := range apps {
		for _, pt := range pts {
			tasks = append(tasks, pt.task(a))
		}
	}
	rs, err := collect(ex, tasks)
	if err != nil {
		return nil, err
	}
	for i, a := range apps {
		t.add(a.Name, cells(rs[i*len(pts):(i+1)*len(pts)])...)
	}
	return t, nil
}

// -------------------------------------------------------- speedup grid

// pair is one column of a speedup grid: an MMT run's speedup over its
// baseline.
type pair struct {
	name, head string // quantity name; heading, when it differs
	base, mmt  point
}

// matched pairs MMT-FXR with a Base machine under the same hook.
func matched(name string, threads int, hook func(*core.Config)) pair {
	return pair{name: name, base: point{PresetBase, threads, hook}, mmt: point{PresetMMTFXR, threads, hook}}
}

// speedups is the grid loop: the speedup of every pair for every app, as
// s[app][pair]. It schedules every run, then collects them in the same
// order: app by app, where each pair's baseline precedes its MMT run and
// the plain Base run comes once per app when every pair shares it; or,
// byColumn, pair by pair.
func speedups(ex Exec, apps []workloads.App, pairs []pair, byColumn bool) ([][]float64, error) {
	shared := !byColumn
	for _, p := range pairs {
		b := pairs[0].base
		shared = shared && p.base.mutate == nil && p.base.preset == b.preset && p.base.threads == b.threads
	}
	type run struct {
		app, pair int
		base      bool
	}
	var order []run
	if byColumn {
		for p := range pairs {
			for a := range apps {
				order = append(order, run{a, p, true}, run{a, p, false})
			}
		}
	} else {
		for a := range apps {
			if shared {
				order = append(order, run{a, 0, true})
			}
			for p := range pairs {
				if !shared {
					order = append(order, run{a, p, true})
				}
				order = append(order, run{a, p, false})
			}
		}
	}
	tasks := make([]Task, len(order))
	for i, r := range order {
		pt := pairs[r.pair].mmt
		if r.base {
			pt = pairs[r.pair].base
		}
		tasks[i] = pt.task(apps[r.app])
	}
	rs, err := collect(ex, tasks)
	if err != nil {
		return nil, err
	}
	s := make([][]float64, len(apps))
	for a := range s {
		s[a] = make([]float64, len(pairs))
	}
	var base *Result
	for i, r := range order {
		if r.base {
			base = rs[i]
		} else {
			s[r.app][r.pair] = Speedup(base, rs[i])
		}
	}
	return s, nil
}

// geomeans returns the geomean of each column of s.
func geomeans(s [][]float64, cols int) []float64 {
	gm := make([]float64, cols)
	for c := range gm {
		var xs []float64
		for _, row := range s {
			xs = append(xs, row[c])
		}
		gm[c] = Geomean(xs)
	}
	return gm
}

// speedupRows runs the grid app by app into t: one row per app under one
// column of width w per pair, then a geomean row when asked.
func speedupRows(ex Exec, apps []workloads.App, t *Table, pairs []pair, w int, geomean bool) (*Table, error) {
	s, err := speedups(ex, apps, pairs, false)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		c := num(p.name, w)
		c.Head = p.head
		t.Cols = append(t.Cols, c)
	}
	for a, app := range apps {
		t.add(app.Name, s[a]...)
	}
	if geomean {
		t.Rows = append(t.Rows, Row{Name: "geomean", Vals: geomeans(s, len(pairs)), Summary: true})
	}
	return t, nil
}

// sweepRows runs the grid column by column into a sweep table: one row
// per pair holding its geomean speedup.
func sweepRows(ex Exec, apps []workloads.App, name, title, label string, pairs []pair) (*Table, error) {
	s, err := speedups(ex, apps, pairs, true)
	if err != nil {
		return nil, err
	}
	t := &Table{Name: name, Title: title, Label: label, Cols: []Column{{Name: "geomean", Fmt: " %.3f"}}}
	for p, g := range geomeans(s, len(pairs)) {
		t.Rows = append(t.Rows, Row{Name: pairs[p].name, Vals: []float64{g}, Summary: true})
	}
	return t, nil
}

// ---------------------------------------------------------------- Table 3

// table3 is the hardware cost estimate at the Table 4 machine.
func table3(Exec, []workloads.App) (*Table, error) {
	h := core.EstimateHWCost(core.DefaultConfig(4))
	unit := func(name, sym string) []Column { return []Column{{Name: name, Fmt: " %.0f " + sym}} }
	return &Table{Name: "table3", Title: "Table 3: MMT hardware cost estimate", Label: "%s:", Cols: unit("bits", "b"), Rows: []Row{
		{Name: "inst-win-itid", Label: "Inst Win ITID", Vals: []float64{float64(h.InstWinITIDBits)}},
		{Name: "fhb-cam", Label: "FHB CAM", Vals: []float64{float64(h.FHBBits)}},
		{Name: "rst", Label: "RST", Vals: []float64{float64(h.RSTBits)}},
		{Name: "reg-state", Label: "Reg State", Vals: []float64{float64(h.RegStateBits)}},
		{Name: "lvip", Label: "LVIP", Vals: []float64{float64(h.LVIPBytes)}, Cols: unit("bytes", "B")},
		{Name: "track-reg", Label: "Track Reg", Vals: []float64{float64(h.TrackRegBits)}},
		{Name: "inst-split", Label: "Inst Split", Vals: []float64{float64(h.SplitLogicUM2)}, Cols: unit("um2", "um^2")},
		{Name: "total", Label: "Total storage", Vals: []float64{float64(h.TotalBits())}, Cols: unit("bits", "bits"), Summary: true},
	}}, nil
}

// ---------------------------------------------------------- Figs. 1–2

// profileTasks enumerates the two-context trace-alignment points shared by
// Fig. 1 and Fig. 2.
func profileTasks(apps []workloads.App, maxInsts int) []Task {
	tasks := make([]Task, 0, len(apps))
	for _, a := range apps {
		tasks = append(tasks, Task{App: a, Threads: 2, Profile: true, MaxInsts: maxInsts})
	}
	return tasks
}

// profilePoint collects one trace-alignment profile through an executor.
func profilePoint(ex Exec, a workloads.App, maxInsts int) (*trace.Profile, error) {
	out, err := ex.Do(Task{App: a, Threads: 2, Profile: true, MaxInsts: maxInsts})
	if err != nil {
		return nil, err
	}
	return out.Profile, nil
}

// Figure1 profiles instruction redundancy (§3.2) for every application
// with two contexts, using the trace-alignment methodology.
func Figure1(ex Exec, apps []workloads.App, maxInsts int) (*Table, error) {
	ex.Schedule(profileTasks(apps, maxInsts)...)
	t := appTable("fig1", "Figure 1: instruction sharing breakdown (2 contexts)",
		pct("exec-ident", 12), pct("fetch-ident", 12), pct("not-ident", 12))
	var xs, fs []float64
	for _, a := range apps {
		prof, err := profilePoint(ex, a, maxInsts)
		if err != nil {
			return nil, err
		}
		x, f, n := prof.Fractions()
		t.add(a.Name, x, f, n)
		xs = append(xs, x)
		fs = append(fs, x+f)
	}
	fetchable := pct("fetchable", 12)
	fetchable.Fmt += "  (arithmetic means: exec-ident, total fetchable)"
	t.Rows = append(t.Rows, Row{Name: "average", Vals: []float64{mean(xs), mean(fs)},
		Cols: []Column{t.Cols[0], fetchable}, Summary: true})
	return t, nil
}

// Figure2 measures the difference in length of divergent execution paths:
// the cumulative share of divergences within each bucket of taken
// branches, and the divergence count.
func Figure2(ex Exec, apps []workloads.App, maxInsts int) (*Table, error) {
	ex.Schedule(profileTasks(apps, maxInsts)...)
	t := appTable("fig2", "Figure 2: divergent path length difference (cumulative, taken branches)")
	for _, b := range trace.DistBuckets {
		c := pct(fmt.Sprintf("within%d", b), 7)
		c.Head = fmt.Sprintf("<=%d", b)
		t.Cols = append(t.Cols, c)
	}
	t.Cols = append(t.Cols, count("divs", 8))
	for _, a := range apps {
		prof, err := profilePoint(ex, a, maxInsts)
		if err != nil {
			return nil, err
		}
		var vals []float64
		for _, b := range trace.DistBuckets {
			vals = append(vals, prof.DiffWithin(b))
		}
		t.add(a.Name, append(vals, float64(prof.Divergences))...)
	}
	return t, nil
}

// ---------------------------------------------------------------- Fig. 5

// figure5 is Fig. 5(a) (2 threads) or 5(c) (4 threads): every MMT
// preset's speedup over Base.
func figure5(name string, threads int) driver {
	return func(ex Exec, apps []workloads.App) (*Table, error) {
		var pairs []pair
		for _, p := range []Preset{PresetMMTF, PresetMMTFX, PresetMMTFXR, PresetLimit} {
			pairs = append(pairs, pair{name: string(p), base: point{PresetBase, threads, nil}, mmt: point{p, threads, nil}})
		}
		t := appTable(name, fmt.Sprintf("Figure 5: speedup over Base SMT, %d threads", threads))
		return speedupRows(ex, apps, t, pairs, 8, true)
	}
}

// fxr2 is the MMT-FXR point at 2 threads that Fig. 5(b), Fig. 5(d) and
// §6.3 share.
var fxr2 = []point{{PresetMMTFXR, 2, nil}}

// figure5b is the fraction of committed per-thread instructions the
// MMT-FXR hardware identified in each category.
func figure5b(ex Exec, apps []workloads.App) (*Table, error) {
	t := appTable("fig5b", "Figure 5(b): identical instructions identified (MMT-FXR)",
		pct("exec-ident", 11), pct("exec+regmerge", 13), pct("fetch-ident", 12), pct("not-ident", 11))
	return appRows(ex, apps, t, fxr2, func(rs []*Result) []float64 {
		x, xr, f, n := rs[0].Stats.IdenticalFractions()
		return []float64{x, xr, f, n}
	})
}

// figure5d is MMT-FXR's instruction breakdown by fetch mode.
func figure5d(ex Exec, apps []workloads.App) (*Table, error) {
	t := appTable("fig5d", "Figure 5(d): instruction breakdown by fetch mode (MMT-FXR)",
		pct("MERGE", 8), pct("DETECT", 8), pct("CATCHUP", 8))
	return appRows(ex, apps, t, fxr2, func(rs []*Result) []float64 {
		m, d, c := rs[0].Stats.FetchModeFractions()
		return []float64{m, d, c}
	})
}

// ---------------------------------------------------------------- Fig. 6

// figure6 compares energy per job across SMT/MMT at 2 and 4 threads,
// normalized to SMT-2T, with the MMT-4T bar's breakdown. Its runs are
// scheduled preset by preset but collected bar by bar, so it keeps its
// own loop rather than appRows.
func figure6(ex Exec, apps []workloads.App) (*Table, error) {
	var tasks []Task
	for _, a := range apps {
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			for _, n := range []int{2, 4} {
				tasks = append(tasks, Task{App: a, Preset: p, Threads: n})
			}
		}
	}
	ex.Schedule(tasks...)

	t := appTable("fig6", "Figure 6: energy per job, normalized to SMT-2T",
		num("SMT-2T", 8), num("MMT-2T", 8), num("SMT-4T", 8), num("MMT-4T", 8),
		Column{Name: "cache", Head: "MMT-4T cache/ovh/other", HeadFmt: " %24s", Fmt: "    %5.1f%%", Pct: true},
		Column{Name: "overhead", Fmt: " /%5.2f%%", Pct: true},
		Column{Name: "other", Fmt: " /%5.1f%%", Pct: true})
	var ratios []float64
	for _, a := range apps {
		var e [4]*Result // SMT-2T, MMT-2T, SMT-4T, MMT-4T
		for i, pt := range []point{{PresetBase, 2, nil}, {PresetMMTFXR, 2, nil}, {PresetBase, 4, nil}, {PresetMMTFXR, 4, nil}} {
			r, err := runPoint(ex, pt.task(a))
			if err != nil {
				return nil, err
			}
			e[i] = r
		}
		norm := e[0].EnergyPerJob
		smt4, mmt4 := e[2].EnergyPerJob/norm, e[3].EnergyPerJob/norm
		var cache, overhead, other float64
		if tot := e[3].Energy.Total(); tot > 0 {
			cache, overhead, other = e[3].Energy.Cache/tot, e[3].Energy.Overhead/tot, e[3].Energy.Other/tot
		}
		t.add(a.Name, 1.0, e[1].EnergyPerJob/norm, smt4, mmt4, cache, overhead, other)
		if smt4 > 0 {
			ratios = append(ratios, mmt4/smt4)
		}
	}
	t.Rows = append(t.Rows, Row{Name: "summary", Vals: []float64{Geomean(ratios)},
		Cols: []Column{{Name: "mmt4-vs-smt4", Fmt: " MMT-4T/SMT-4T geomean = %.3f"}}, Summary: true})
	return t, nil
}

// ---------------------------------------------------------------- Fig. 7

// FHBSizes is the sweep of Fig. 7(a)/(c).
var FHBSizes = []int{8, 16, 32, 64, 128}

// fhbMutate returns the Fig. 7(a)/(c) configuration hook for one size.
func fhbMutate(size int) func(*core.Config) {
	return (&ConfigOverride{FHBSize: size}).apply
}

// figure7a sweeps the Fetch History Buffer size: speedup over Base per
// size.
func figure7a(ex Exec, apps []workloads.App) (*Table, error) {
	var pairs []pair
	for _, size := range FHBSizes {
		pairs = append(pairs, pair{name: strconv.Itoa(size), base: point{PresetBase, 2, nil}, mmt: point{PresetMMTFXR, 2, fhbMutate(size)}})
	}
	return speedupRows(ex, apps, appTable("fig7a", "Figure 7(a): speedup over Base vs FHB size"), pairs, 7, false)
}

// figure7c sweeps the FHB size and reports MERGE and CATCHUP residency.
func figure7c(ex Exec, apps []workloads.App) (*Table, error) {
	t := appTable("fig7c", "Figure 7(c): MERGE residency vs FHB size (CATCHUP in parens)")
	var pts []point
	for _, size := range FHBSizes {
		n := strconv.Itoa(size)
		t.Cols = append(t.Cols,
			Column{Name: "MERGE-" + n, Head: n, HeadFmt: " %15s", Fmt: "  %5.1f%%", Pct: true},
			Column{Name: "CATCHUP-" + n, Fmt: " (%4.1f%%)", Pct: true})
		pts = append(pts, point{PresetMMTFXR, 2, fhbMutate(size)})
	}
	return appRows(ex, apps, t, pts, func(rs []*Result) []float64 {
		var vals []float64
		for _, r := range rs {
			m, _, c := r.Stats.FetchModeFractions()
			vals = append(vals, m, c)
		}
		return vals
	})
}

// LSPortCounts is the sweep of Fig. 7(b); MSHRs scale with the ports, as
// in the paper.
var LSPortCounts = []int{2, 4, 6, 8, 12}

// figure7b sweeps load/store ports (Base and MMT-FXR alike): the geomean
// speedup at each point.
func figure7b(ex Exec, apps []workloads.App) (*Table, error) {
	var pairs []pair
	for _, ports := range LSPortCounts {
		pairs = append(pairs, matched(strconv.Itoa(ports), 2, (&ConfigOverride{LSPorts: ports}).apply))
	}
	return sweepRows(ex, apps, "fig7b", "Figure 7(b): geomean speedup vs load/store ports", "%6s:", pairs)
}

// FetchWidths is the sweep of Fig. 7(d).
var FetchWidths = []int{4, 8, 16, 32}

// figure7d sweeps the fetch width (Base and MMT-FXR alike): the geomean
// speedup at each point.
func figure7d(ex Exec, apps []workloads.App) (*Table, error) {
	var pairs []pair
	for _, w := range FetchWidths {
		pairs = append(pairs, matched(strconv.Itoa(w), 2, (&ConfigOverride{FetchWidth: w}).apply))
	}
	return sweepRows(ex, apps, "fig7d", "Figure 7(d): geomean speedup vs fetch width", "%6s:", pairs)
}

// ---------------------------------------------------------------- §6.3

// remergeWithin512 is the fraction of MMT-FXR remerges found within 512
// taken branches, per app and on average (the paper reports ~90%).
func remergeWithin512(ex Exec, apps []workloads.App) (*Table, error) {
	within := Column{Name: "within512", Fmt: " %6.1f%%", Pct: true}
	t := &Table{Name: "sec63", Title: "Section 6.3: remerges found within 512 taken branches", Label: "%-14s", Cols: []Column{within}}
	if _, err := appRows(ex, apps, t, fxr2, func(rs []*Result) []float64 {
		return []float64{rs[0].Stats.RemergeWithin(512)}
	}); err != nil {
		return nil, err
	}
	if len(apps) > 0 {
		var vals []float64
		for _, r := range t.Rows {
			vals = append(vals, r.Vals[0])
		}
		t.Rows = append(t.Rows, Row{Name: "average", Vals: []float64{mean(vals)}, Summary: true})
	}
	return t, nil
}

// ------------------------------------------------- Extension: MP suite

// mpRanks returns the rank count for one message-passing app: pairwise
// kernels at 2, the all-reduce at 4.
func mpRanks(a workloads.App) int {
	if a.Name == "allreduce-mp" {
		return 4
	}
	return 2
}

// extensionMP runs the message-passing suite (the paper lists this class
// as future work in §7): MMT-FXR's speedup over Base, MERGE residency and
// execute-identical share per app.
func extensionMP(ex Exec, _ []workloads.App) (*Table, error) {
	apps := workloads.MP()
	var tasks []Task
	for _, a := range apps {
		n := mpRanks(a)
		tasks = append(tasks, point{PresetBase, n, nil}.task(a), point{PresetMMTFXR, n, nil}.task(a))
	}
	rs, err := collect(ex, tasks)
	if err != nil {
		return nil, err
	}
	t := appTable("mp", "Extension (paper §7 future work): message-passing workloads",
		count("ranks", 6), num("speedup", 9), pct("MERGE", 8), pct("exec-ident", 12))
	for i, a := range apps {
		base, fxr := rs[2*i], rs[2*i+1]
		m, _, _ := fxr.Stats.FetchModeFractions()
		x, xr, _, _ := fxr.Stats.IdenticalFractions()
		t.add(a.Name, float64(mpRanks(a)), Speedup(base, fxr), m, x+xr)
	}
	return t, nil
}

// --------------------------------------------- Extension: thread scaling

// extensionScaling sweeps the hardware thread count 1–4: the geomean
// MMT-FXR speedup over Base at each (the paper evaluates 2 and 4; the
// curve shows the trend).
func extensionScaling(ex Exec, apps []workloads.App) (*Table, error) {
	var pairs []pair
	for n := 1; n <= 4; n++ {
		pairs = append(pairs, matched(strconv.Itoa(n), n, nil))
	}
	return sweepRows(ex, apps, "scaling", "Extension: MMT-FXR geomean speedup vs hardware thread count", "%6s threads:", pairs)
}
