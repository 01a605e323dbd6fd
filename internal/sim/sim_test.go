package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mmt/internal/core"
	"mmt/internal/trace"
	"mmt/internal/workloads"
)

func TestPresetConfigurations(t *testing.T) {
	cases := []struct {
		p                Preset
		fetch, exec, reg bool
	}{
		{PresetBase, false, false, false},
		{PresetMMTF, true, false, false},
		{PresetMMTFX, true, true, false},
		{PresetMMTFXR, true, true, true},
		{PresetLimit, true, true, true},
	}
	for _, c := range cases {
		cfg, err := Configure(c.p, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SharedFetch != c.fetch || cfg.SharedExec != c.exec || cfg.RegMerge != c.reg {
			t.Errorf("%s: got %v/%v/%v", c.p, cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", c.p, err)
		}
	}
	if _, err := Configure(Preset("bogus"), 2); err == nil {
		t.Error("unknown preset accepted")
	}
	if !PresetLimit.IdenticalInputs() || PresetMMTFXR.IdenticalInputs() {
		t.Error("IdenticalInputs wrong")
	}
	if len(Presets()) != 5 {
		t.Error("preset list")
	}
}

func TestTable4Defaults(t *testing.T) {
	// The default machine must match Table 4 of the paper.
	cfg := core.DefaultConfig(4)
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"threads", cfg.Threads, 4},
		{"issue width", cfg.IssueWidth, 8},
		{"commit width", cfg.CommitWidth, 8},
		{"LSQ size", cfg.LSQSize, 64},
		{"ROB size", cfg.ROBSize, 256},
		{"int ALUs", cfg.IntALUs, 6},
		{"FPUs", cfg.FPUs, 3},
		{"PHT entries", cfg.Branch.PHTEntries, 1024},
		{"history bits", int(cfg.Branch.HistoryBits), 10},
		{"BTB entries", cfg.Branch.BTBEntries, 2048},
		{"RAS entries", cfg.Branch.RASEntries, 16},
		{"LVIP entries", cfg.LVIPSize, 4096},
		{"FHB entries", cfg.FHBSize, 32},
		{"trace cache bytes", cfg.TraceCacheBytes, 1 << 20},
		{"L1I bytes", cfg.Mem.L1I.SizeBytes, 64 << 10},
		{"L1D bytes", cfg.Mem.L1D.SizeBytes, 64 << 10},
		{"L1 ways", cfg.Mem.L1D.Ways, 4},
		{"line bytes", cfg.Mem.L1D.LineBytes, 64},
		{"L2 bytes", cfg.Mem.L2.SizeBytes, 4 << 20},
		{"L2 ways", cfg.Mem.L2.Ways, 8},
		{"L1 latency", int(cfg.Mem.L1Latency), 1},
		{"L2 latency", int(cfg.Mem.L2Latency), 6},
		{"DRAM latency", int(cfg.Mem.DRAMLatency), 200},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("Table 4 %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestTable3HardwareEstimates(t *testing.T) {
	h := core.EstimateHWCost(core.DefaultConfig(4))
	// Paper Table 3 values at the default configuration.
	if h.InstWinITIDBits != 4*256 {
		t.Errorf("ITID bits = %d", h.InstWinITIDBits)
	}
	if h.FHBBits != 32*32*4 {
		t.Errorf("FHB bits = %d", h.FHBBits)
	}
	if h.RSTBits != 11*50 {
		t.Errorf("RST bits = %d", h.RSTBits)
	}
	if h.RegStateBits != 256*4 {
		t.Errorf("RegState bits = %d", h.RegStateBits)
	}
	if h.LVIPBytes != 4*4096 {
		t.Errorf("LVIP bytes = %d", h.LVIPBytes)
	}
	if h.TrackRegBits != 4*50*9 {
		t.Errorf("TrackReg bits = %d", h.TrackRegBits)
	}
	if h.TotalBits() <= 0 {
		t.Error("total bits")
	}
	// The report's Table 3 reads the same estimate.
	ts := artifactTables(t, "table3", nil)
	if got := quantity(t, ts, "table3/fhb-cam/bits"); got != float64(h.FHBBits) {
		t.Errorf("table3/fhb-cam/bits = %v, want %d", got, h.FHBBits)
	}
	if got := quantity(t, ts, "table3/total/bits"); got != float64(h.TotalBits()) {
		t.Errorf("table3/total/bits = %v, want %d", got, h.TotalBits())
	}
	if s := ts[0].String(); !strings.Contains(s, "FHB CAM: 4096 b") {
		t.Errorf("Table 3 output %q", s)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %f", g)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func TestRunSingleApp(t *testing.T) {
	app, _ := workloads.ByName("libsvm")
	r, err := Run(app, PresetMMTFXR, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.TotalCommitted() == 0 || r.IPC() <= 0 {
		t.Error("empty run")
	}
	if r.Energy.Total() <= 0 || r.EnergyPerJob <= 0 {
		t.Error("no energy accounted")
	}
	if r.App != "libsvm" || r.Preset != PresetMMTFXR || r.Threads != 2 {
		t.Errorf("result metadata %+v", r)
	}
}

func TestRunByName(t *testing.T) {
	if _, err := RunByName("nosuch", PresetBase, 2, nil); err == nil {
		t.Error("unknown app accepted")
	}
	r, err := RunByName("twolf", PresetBase, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Committed[0] == 0 {
		t.Error("no instructions committed")
	}
}

func TestMutateHook(t *testing.T) {
	app, _ := workloads.ByName("libsvm")
	small, err := Run(app, PresetMMTFXR, 2, func(c *core.Config) { c.FHBSize = 8 })
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.Cycles == 0 {
		t.Error("mutated run empty")
	}
}

func TestSpeedupAndLimitOrdering(t *testing.T) {
	// On an ME app with near-identical instances, Limit >= FXR speedup is
	// expected (identical inputs give strictly more sharing).
	app, _ := workloads.ByName("vpr")
	base, err := Run(app, PresetBase, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fxr, err := Run(app, PresetMMTFXR, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := Run(app, PresetLimit, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sFXR, sLim := Speedup(base, fxr), Speedup(base, limit)
	if sLim < sFXR {
		t.Errorf("Limit %.3f below FXR %.3f for vpr", sLim, sFXR)
	}
	// vpr has a large untapped potential (paper §6.1).
	if sLim < 1.1 {
		t.Errorf("vpr Limit speedup %.3f, want substantial", sLim)
	}
}

func TestFigure1SmokeTest(t *testing.T) {
	apps := pick(t, "ammp", "twolf")
	tb, err := Figure1(NewSerial(), apps, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 2 apps and the average", len(tb.Rows))
	}
	ts := []*Table{tb}
	for _, a := range apps {
		var sum float64
		for _, c := range []string{"exec-ident", "fetch-ident", "not-ident"} {
			sum += quantity(t, ts, "fig1/"+a.Name+"/"+c)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s fractions sum to %f", a.Name, sum)
		}
	}
	// ammp's redundancy far exceeds twolf's divergent remainder.
	if quantity(t, ts, "fig1/ammp/exec-ident") < quantity(t, ts, "fig1/twolf/not-ident") {
		t.Logf("fig1:\n%s", tb)
	}
	out := tb.String()
	if !strings.Contains(out, "ammp") || !strings.Contains(out, "average") {
		t.Errorf("format output missing rows:\n%s", out)
	}
}

func TestFigure2SmokeTest(t *testing.T) {
	apps := pick(t, "equake", "twolf")
	tb, err := Figure2(NewSerial(), apps, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	ts := []*Table{tb}
	for _, a := range apps {
		if quantity(t, ts, "fig2/"+a.Name+"/divs") == 0 {
			t.Errorf("%s: no divergences found", a.Name)
		}
		// Cumulative fractions are monotonic.
		prev := 0.0
		for _, b := range trace.DistBuckets {
			v := quantity(t, ts, fmt.Sprintf("fig2/%s/within%d", a.Name, b))
			if v < prev {
				t.Errorf("%s: cumulative not monotonic at <=%d: %f after %f", a.Name, b, v, prev)
			}
			prev = v
		}
	}
	// twolf's divergences are short; equake has long ones (paper Fig. 2).
	tw, eq := quantity(t, ts, "fig2/twolf/within16"), quantity(t, ts, "fig2/equake/within16")
	if tw < 0.85 {
		t.Errorf("twolf within-16 = %f, want > 0.85", tw)
	}
	if eq > tw {
		t.Errorf("equake (%f) should have longer divergences than twolf (%f)", eq, tw)
	}
	_ = tb.String()
}

func pick(t *testing.T, names ...string) []workloads.App {
	t.Helper()
	var out []workloads.App
	for _, n := range names {
		a, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("missing app %s", n)
		}
		out = append(out, a)
	}
	return out
}

func TestFigure5SmokeTest(t *testing.T) {
	apps := pick(t, "swaptions", "blackscholes")
	ts := artifactTables(t, "fig5a", apps)
	if len(ts[0].Rows) != 3 {
		t.Fatalf("rows = %d, want 2 apps and the geomean", len(ts[0].Rows))
	}
	var fxr []float64
	for _, a := range apps {
		for _, c := range []string{"MMT-FXR", "Limit"} {
			if s := quantity(t, ts, "fig5a/"+a.Name+"/"+c); s <= 0 {
				t.Errorf("%s: non-positive %s speedup %f", a.Name, c, s)
			}
		}
		fxr = append(fxr, quantity(t, ts, "fig5a/"+a.Name+"/MMT-FXR"))
	}
	if gm := quantity(t, ts, "fig5a/geomean/MMT-FXR"); gm != Geomean(fxr) {
		t.Errorf("fig5a/geomean/MMT-FXR = %f, want the geomean of %v", gm, fxr)
	}
	_ = ts[0].String()
}

func TestFigure5bAnd5dSmokeTest(t *testing.T) {
	apps := pick(t, "water-ns")
	ts := append(artifactTables(t, "fig5b", apps), artifactTables(t, "fig5d", apps)...)
	if x := quantity(t, ts, "fig5b/water-ns/exec-ident"); x < 0.4 {
		t.Errorf("water-ns exec-ident = %f", x)
	}
	if m := quantity(t, ts, "fig5d/water-ns/MERGE"); m < 0.9 {
		t.Errorf("water-ns MERGE = %f", m)
	}
	for _, tb := range ts {
		_ = tb.String()
	}
}

func TestFigure6SmokeTest(t *testing.T) {
	ts := artifactTables(t, "fig6", pick(t, "swaptions"))
	v := func(col string) float64 { return quantity(t, ts, "fig6/swaptions/"+col) }
	if v("SMT-2T") != 1.0 {
		t.Errorf("normalization broken:\n%s", ts[0])
	}
	// MMT must not cost more energy per job than SMT at equal threads.
	if v("MMT-2T") > v("SMT-2T")*1.01 || v("MMT-4T") > v("SMT-4T")*1.01 {
		t.Errorf("MMT energy above SMT:\n%s", ts[0])
	}
	// Overhead is small (paper: < 2%).
	if o := v("overhead"); o > 0.02 {
		t.Errorf("overhead fraction %f", o)
	}
	if got, want := quantity(t, ts, "fig6/summary/mmt4-vs-smt4"), v("MMT-4T")/v("SMT-4T"); math.Abs(got-want) > 1e-12 {
		t.Errorf("summary = %f, want %f", got, want)
	}
}

func TestFigure7SweepsSmokeTest(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	apps := pick(t, "equake")
	for _, c := range []struct {
		artifact string
		cols     int // per app, for a table of apps
		rows     int // for a sweep
		probe    string
	}{
		{"fig7a", len(FHBSizes), 0, "fig7a/equake/128"},
		{"fig7c", 2 * len(FHBSizes), 0, "fig7c/equake/CATCHUP-8"},
		{"fig7b", 0, len(LSPortCounts), "fig7b/12/geomean"},
		{"fig7d", 0, len(FetchWidths), "fig7d/32/geomean"},
	} {
		ts := artifactTables(t, c.artifact, apps)
		tb := ts[0]
		if c.cols > 0 && len(tb.Cols) != c.cols {
			t.Errorf("%s: %d columns, want %d", c.artifact, len(tb.Cols), c.cols)
		}
		if c.rows > 0 && len(tb.Rows) != c.rows {
			t.Errorf("%s: %d points, want %d", c.artifact, len(tb.Rows), c.rows)
		}
		quantity(t, ts, c.probe)
		_ = tb.String()
	}
}

func TestRemergeWithin512(t *testing.T) {
	ts := artifactTables(t, "sec63", pick(t, "ammp"))
	v := quantity(t, ts, "sec63/ammp/within512")
	if v < 0.5 {
		t.Errorf("ammp remerge-within-512 = %f", v)
	}
	if avg := quantity(t, ts, "sec63/average/within512"); avg != v {
		t.Errorf("average over one app = %f, want %f", avg, v)
	}
}

// artifactTables runs one artifact of the report over apps.
func artifactTables(t *testing.T, name string, apps []workloads.App) []*Table {
	t.Helper()
	for _, a := range Artifacts {
		if a.Name == name {
			ts, err := a.Tables(NewSerial(), apps)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}
	}
	t.Fatalf("no artifact %s", name)
	return nil
}

// quantity reads one named cell, failing the test when there is none.
func quantity(t *testing.T, ts []*Table, name string) float64 {
	t.Helper()
	v, ok := Lookup(ts, name)
	if !ok {
		t.Fatalf("no quantity %s", name)
	}
	return v
}
