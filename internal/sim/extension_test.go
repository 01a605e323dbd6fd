package sim

import (
	"strings"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/core"
	"mmt/internal/prog"
	"mmt/internal/workloads"
)

func TestExtensionMP(t *testing.T) {
	ts := artifactTables(t, "mp", nil)
	if len(ts[0].Rows) != 3 {
		t.Fatalf("rows = %d", len(ts[0].Rows))
	}
	for _, r := range ts[0].Rows {
		if s := quantity(t, ts, "mp/"+r.Name+"/speedup"); s <= 0 {
			t.Errorf("%s: speedup %f", r.Name, s)
		}
		if m := quantity(t, ts, "mp/"+r.Name+"/MERGE"); m < 0.5 {
			t.Errorf("%s: MERGE %f — SPMD ranks should mostly merge", r.Name, m)
		}
	}
	// The all-reduce's gather is rank-independent: it must be the most
	// mergeable and the biggest winner.
	if s := quantity(t, ts, "mp/allreduce-mp/speedup"); s < 1.3 {
		t.Errorf("allreduce speedup = %f", s)
	}
	if !strings.Contains(ts[0].String(), "allreduce-mp") {
		t.Error("format output incomplete")
	}
}

func TestExtensionCoschedule(t *testing.T) {
	ts := artifactTables(t, "cosched", nil)
	if len(ts[0].Rows) != len(CoschedulePairs) {
		t.Fatalf("rows = %d", len(ts[0].Rows))
	}
	for _, p := range CoschedulePairs {
		pair := p[0] + "+" + p[1]
		if s := quantity(t, ts, "cosched/"+pair+"/speedup"); s <= 0 {
			t.Errorf("%s: speedup %f", pair, s)
		}
		// Gangs of two can merge at most pairwise; some merged
		// execution must survive the mixed workload.
		if quantity(t, ts, "cosched/"+pair+"/exec-ident") == 0 {
			t.Errorf("%s: no merged execution", pair)
		}
	}
	// The high-sharing pair outruns the annealing pair.
	if quantity(t, ts, "cosched/equake+mcf/speedup") < quantity(t, ts, "cosched/libsvm+vpr/speedup") {
		t.Errorf("pair ordering unexpected:\n%s", ts[0])
	}
}

func TestCoscheduleRejectsMTApps(t *testing.T) {
	a, _ := workloads.ByName("ammp")
	mt, _ := workloads.ByName("lu")
	if _, err := buildCoschedule(a, mt); err == nil {
		t.Error("MT app accepted for co-scheduling")
	}
}

func TestAblationSyncPolicy(t *testing.T) {
	apps := pick(t, "water-ns", "twolf")
	ts := studyTables(t, "abl-sync", apps)
	if len(ts[0].Rows) != len(apps)+1 || len(ts[0].Cols) != 3 {
		t.Fatalf("shape: %d rows, %d columns", len(ts[0].Rows), len(ts[0].Cols))
	}
	// water-ns depends on the FHB mechanism: the hardware detector must
	// beat both the hints baseline and no detection.
	fhb, hints := quantity(t, ts, "abl-sync/water-ns/fhb"), quantity(t, ts, "abl-sync/water-ns/hints")
	if fhb <= hints {
		t.Errorf("water-ns: FHB %.3f vs hints %.3f — hardware detection should win", fhb, hints)
	}
	if !strings.Contains(ts[0].String(), "geomean") {
		t.Error("format output incomplete")
	}
}

func TestAblationLVIP(t *testing.T) {
	ts := studyTables(t, "abl-lvip", pick(t, "libsvm", "ammp"))
	// predict ≈ oracle >= off: the predictor recovers nearly all the
	// oracle's value, and both beat always-splitting.
	predict := quantity(t, ts, "abl-lvip/geomean/predict")
	off := quantity(t, ts, "abl-lvip/geomean/off")
	oracle := quantity(t, ts, "abl-lvip/geomean/oracle")
	if predict < off {
		t.Errorf("predictor (%.3f) below always-split (%.3f)", predict, off)
	}
	if oracle < off {
		t.Errorf("oracle (%.3f) below always-split (%.3f)", oracle, off)
	}
	if predict < 0.9*oracle {
		t.Errorf("predictor (%.3f) far below oracle (%.3f)", predict, oracle)
	}
}

func TestAblationSweepShapes(t *testing.T) {
	apps := pick(t, "equake")
	for _, name := range []string{"abl-duty", "abl-ports"} {
		tb := studyTables(t, name, apps)[0]
		if len(tb.Cols) != 4 || len(tb.Rows) != len(apps)+1 {
			t.Errorf("%s shape: %d columns, %d rows", name, len(tb.Cols), len(tb.Rows))
		}
		for _, r := range tb.Rows {
			if len(r.Vals) != len(tb.Cols) {
				t.Errorf("%s/%s: %d values for %d columns", name, r.Name, len(r.Vals), len(tb.Cols))
			}
		}
	}
}

// studyTables runs one ablation study over apps.
func studyTables(t *testing.T, name string, apps []workloads.App) []*Table {
	t.Helper()
	for _, s := range studies {
		if s.name == name {
			tb, err := s.table(NewSerial(), apps)
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tb}
		}
	}
	t.Fatalf("no study %s", name)
	return nil
}

func TestSyncPolicyConfigs(t *testing.T) {
	// The policies are distinct behaviours on a divergent app.
	app, _ := workloads.ByName("twolf")
	get := func(p core.SyncPolicy) *core.Stats {
		r, err := Run(app, PresetMMTFXR, 2, func(c *core.Config) { c.Sync = p })
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats
	}
	fhb := get(core.SyncFHB)
	hints := get(core.SyncHints)
	none := get(core.SyncNone)
	if fhb.CatchupsStarted == 0 {
		t.Error("FHB policy never entered catchup")
	}
	if hints.HintParks == 0 {
		t.Error("hints policy never parked")
	}
	if none.CatchupsStarted != 0 || none.HintParks != 0 {
		t.Error("none policy used a detector")
	}
	if none.FetchedByMode[core.FetchCatchup] != 0 {
		t.Error("none policy recorded CATCHUP instructions")
	}
}

func TestPermuteRegistersPreservesSemantics(t *testing.T) {
	for _, name := range DiversityApps {
		a, _ := workloads.ByName(name)
		variant := permuteRegisters(a.Source)
		if variant == a.Source {
			t.Errorf("%s: permutation changed nothing", name)
		}
		// Specials are preserved.
		for _, tok := range []string{"r0", "r4", "tid"} {
			if strings.Contains(a.Source, tok) && !strings.Contains(variant, tok) {
				t.Errorf("%s: token %q lost", name, tok)
			}
		}
		pa, err := asm.Assemble(name, a.Source)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := asm.AssembleAt(name+"-v", variant, altCodeBase, altDataBase)
		if err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		if len(pa.Insts) != len(pb.Insts) {
			t.Fatalf("%s: instruction counts differ: %d vs %d", name, len(pa.Insts), len(pb.Insts))
		}
		// Semantically identical: the variant runs the same dynamic path.
		run := func(p *prog.Program) uint64 {
			sys, err := prog.NewMultiSystem([]*prog.Program{p}, func(ctx int, mem *prog.Memory) {
				if a.Init != nil {
					a.Init(p, 0, mem, false)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunFunctional(3_000_000); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			return sys.Contexts[0].DynCount
		}
		if da, db := run(pa), run(pb); da != db {
			t.Errorf("%s: dynamic paths diverge: %d vs %d instructions", name, da, db)
		}
	}
}

func TestExtensionDiversity(t *testing.T) {
	ts := artifactTables(t, "diversity", nil)
	if len(ts[0].Rows) != len(DiversityApps) {
		t.Fatalf("rows = %d", len(ts[0].Rows))
	}
	// In aggregate, diversity reduces what MMT can merge: the uniform
	// geomean exceeds the diversified one.
	var u, d []float64
	for _, a := range DiversityApps {
		uv, dv := quantity(t, ts, "diversity/"+a+"/uniform"), quantity(t, ts, "diversity/"+a+"/diversified")
		if uv <= 0 || dv <= 0 {
			t.Errorf("%s: non-positive speedups %f, %f", a, uv, dv)
		}
		u = append(u, uv)
		d = append(d, dv)
	}
	if Geomean(u) <= Geomean(d) {
		t.Errorf("diversity did not reduce gains: uniform %.3f vs diverse %.3f", Geomean(u), Geomean(d))
	}
}

func TestExtensionScaling(t *testing.T) {
	ts := artifactTables(t, "scaling", pick(t, "water-ns", "swaptions", "twolf"))
	if len(ts[0].Rows) != 4 {
		t.Fatalf("rows = %d", len(ts[0].Rows))
	}
	if one := quantity(t, ts, "scaling/1/geomean"); one < 0.99 || one > 1.01 {
		t.Errorf("1-thread speedup = %f, want ~1.0", one)
	}
	// The advantage grows with threads on this sharing-heavy subset.
	if quantity(t, ts, "scaling/4/geomean") <= quantity(t, ts, "scaling/2/geomean") {
		t.Errorf("no scaling:\n%s", ts[0])
	}
}

func TestAblationMachineScaleShapes(t *testing.T) {
	ts := studyTables(t, "abl-scale", pick(t, "swaptions", "ammp"))
	if len(ts[0].Cols) != 3 || len(ts[0].Rows) != 3 {
		t.Fatal("shape")
	}
	for _, c := range ts[0].Cols {
		if g := quantity(t, ts, "abl-scale/geomean/"+c.Name); g <= 0.5 {
			t.Errorf("variant %s geomean %f", c.Name, g)
		}
	}
}

func TestAblationTraceCacheShapes(t *testing.T) {
	ts := studyTables(t, "abl-tc", pick(t, "ammp"))
	if len(ts[0].Cols) != 2 || len(ts[0].Rows[0].Vals) != 2 {
		t.Fatal("shape")
	}
	// MMT still wins on the high-sharing app without a trace cache.
	if g := quantity(t, ts, "abl-tc/geomean/without-tc"); g < 1.0 {
		t.Errorf("without-TC geomean %f on ammp", g)
	}
}

func TestMemoCachesByResolvedConfig(t *testing.T) {
	app, ok := workloads.ByName("libsvm")
	if !ok {
		t.Fatal("missing app libsvm")
	}
	m := NewMemo()
	point := Task{App: app, Preset: PresetBase, Threads: 2}
	r1, err := m.Do(point)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Do(point)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second identical run not cached")
	}
	if m.Len() != 1 {
		t.Errorf("cache size %d", m.Len())
	}
	// A mutated run keys on its resolved configuration: distinct from the
	// unmutated point, but shared between equivalent closures.
	mutated := Task{App: app, Preset: PresetBase, Threads: 2, Mutate: func(c *core.Config) { c.FHBSize = 8 }}
	r3, err := m.Do(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 || m.Len() != 2 {
		t.Errorf("mutated run shared the unmutated key (len %d)", m.Len())
	}
	sameEffect := Task{App: app, Preset: PresetBase, Threads: 2, Mutate: func(c *core.Config) { c.FHBSize = 8 }}
	r4, err := m.Do(sameEffect)
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r3 || m.Len() != 2 {
		t.Errorf("equivalent mutation missed the cache (len %d)", m.Len())
	}
	// A no-op mutation resolves to the unmutated configuration.
	noop := Task{App: app, Preset: PresetBase, Threads: 2, Mutate: func(c *core.Config) {}}
	r5, err := m.Do(noop)
	if err != nil {
		t.Fatal(err)
	}
	if r5 != r1 {
		t.Error("no-op mutation missed the cache")
	}
	if _, err := m.Do(Task{App: app, Preset: Preset("Bogus"), Threads: 2}); err == nil {
		t.Error("unknown preset accepted")
	}
}
