package sim

import (
	"reflect"
	"testing"

	"mmt/internal/prog"
	"mmt/internal/workloads"
)

// TestTimingRelations pins timing relations that hold on the sixteen
// kernels. The differential fuzz compares architectural results only, so
// a timing bug that keeps results right passes it but breaks these.
func TestTimingRelations(t *testing.T) {
	run := func(t *testing.T, a workloads.App, p Preset, threads int) *Result {
		t.Helper()
		r, err := Run(a, p, threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, rel := range []struct {
		name    string
		applies func(workloads.App) bool
		check   func(t *testing.T, a workloads.App)
	}{
		// One thread has nothing to merge with, so the MMT machinery must
		// cost nothing.
		{"1T-fxr-equals-base", func(workloads.App) bool { return true }, func(t *testing.T, a workloads.App) {
			base, fxr := run(t, a, PresetBase, 1), run(t, a, PresetMMTFXR, 1)
			if base.Stats.Cycles != fxr.Stats.Cycles {
				t.Errorf("MMT-FXR %d cycles, Base %d", fxr.Stats.Cycles, base.Stats.Cycles)
			}
		}},
		// Identical instances of a multi-execution program never diverge,
		// so every committed instruction executed once for all threads.
		{"limit-me-all-exec-identical", func(a workloads.App) bool { return a.Mode == prog.ModeME }, func(t *testing.T, a workloads.App) {
			for _, n := range []int{2, 4} {
				if ei, _, _, _ := run(t, a, PresetLimit, n).Stats.IdenticalFractions(); ei != 1 {
					t.Errorf("Limit at %dT: %.4f of commits execute-identical, want 1", n, ei)
				}
			}
		}},
		// Renaming registers in the one binary every context runs changes
		// no dependence, so no timing may move.
		{"register-permutation-equal-stats", func(workloads.App) bool { return true }, func(t *testing.T, a workloads.App) {
			perm := a
			perm.Source = permuteRegisters(a.Source)
			for _, p := range []Preset{PresetBase, PresetMMTFXR, PresetLimit} {
				for _, n := range []int{1, 2, 4} {
					if orig, got := run(t, a, p, n).Stats, run(t, perm, p, n).Stats; !reflect.DeepEqual(orig, got) {
						t.Errorf("%s at %dT: permuted registers moved the stats: %d cycles, original %d",
							p, n, got.Cycles, orig.Cycles)
					}
				}
			}
		}},
	} {
		for _, a := range workloads.All() {
			if rel.applies(a) {
				t.Run(rel.name+"/"+a.Name, func(t *testing.T) { rel.check(t, a) })
			}
		}
	}
}
