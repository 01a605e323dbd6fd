package sim

import (
	"mmt/internal/core"
	"mmt/internal/workloads"
)

// Ablation studies for the design choices DESIGN.md calls out. Each runs
// MMT-FXR variants at 2 threads against Base, so its rows are directly
// comparable with Fig. 5(a).

// study is one ablation: one column per variant, each MMT-FXR under the
// variant's configuration hook. When hookBase is set the Base run takes
// the hook too, for studies whose baseline must change with the MMT
// machine.
type study struct {
	name, title string
	hookBase    bool
	variants    []variant
}

// variant is one column of a study.
type variant struct {
	name, head string // quantity name; heading, when it differs
	hook       func(*core.Config)
}

// table runs the study over apps.
func (s study) table(ex Exec, apps []workloads.App) (*Table, error) {
	pairs := make([]pair, len(s.variants))
	for i, v := range s.variants {
		pairs[i] = pair{name: v.name, head: v.head, base: point{PresetBase, 2, nil}, mmt: point{PresetMMTFXR, 2, v.hook}}
		if s.hookBase {
			pairs[i].base.mutate = v.hook
		}
	}
	return speedupRows(ex, apps, appTable(s.name, s.title), pairs, 12, true)
}

func syncPolicy(p core.SyncPolicy) func(*core.Config) { return func(c *core.Config) { c.Sync = p } }
func lvipMode(m core.LVIPMode) func(*core.Config)     { return func(c *core.Config) { c.LVIP = m } }
func aheadDuty(d uint64) func(*core.Config)           { return func(c *core.Config) { c.AheadDuty = d } }
func regMergePorts(n int) func(*core.Config)          { return func(c *core.Config) { c.RegMergePorts = n } }

// shrink narrows every stage of the machine to width and cuts its units.
func shrink(width, alus, fpus, ports int) func(*core.Config) {
	return func(c *core.Config) {
		c.FetchWidth, c.IssueWidth, c.CommitWidth, c.RenameWidth = width, width, width, width
		c.IntALUs, c.FPUs, c.LSPorts = alus, fpus, ports
	}
}

// studies is the ablations artifact, in report order.
var studies = []study{
	// The paper's hardware remerge detector against the Thread Fusion
	// software-hints baseline [36] and against no remerge detection.
	{name: "abl-sync", title: "Ablation: remerge mechanism (MMT-FXR, 2T)", variants: []variant{
		{"fhb", "FHB+CATCHUP", syncPolicy(core.SyncFHB)},
		{"hints", "hints (TF)", syncPolicy(core.SyncHints)},
		{"none", "", syncPolicy(core.SyncNone)},
	}},
	// The load-value-identical predictor against no prediction (always
	// split) and a value oracle (the upper bound).
	{name: "abl-lvip", title: "Ablation: load-value-identical policy (MMT-FXR, 2T)", variants: []variant{
		{"predict", "", lvipMode(core.LVIPPredict)},
		{"off", "", lvipMode(core.LVIPOff)},
		{"oracle", "", lvipMode(core.LVIPOracle)},
	}},
	// CATCHUP's ahead thread fully gated, or fetching every Nth cycle.
	{name: "abl-duty", title: "Ablation: CATCHUP ahead-thread duty cycle (MMT-FXR, 2T)", variants: []variant{
		{"gated", "", aheadDuty(0)},
		{"duty2", "1/2", aheadDuty(2)},
		{"duty4", "1/4", aheadDuty(4)},
		{"duty8", "1/8", aheadDuty(8)},
	}},
	// Register-merge comparisons per cycle; 0 disables them while keeping
	// the rest of MMT-FXR.
	{name: "abl-ports", title: "Ablation: register-merge read ports (MMT-FXR, 2T)", variants: []variant{
		{"ports0", "0 ports", regMergePorts(0)},
		{"ports1", "1 ports", regMergePorts(1)},
		{"ports2", "2 ports", regMergePorts(2)},
		{"ports4", "4 ports", regMergePorts(4)},
	}},
	// §5: "the speedups of our system increase as the system is scaled
	// down, so we chose an aggressive baseline".
	{name: "abl-scale", title: "Ablation (§5 claim): machine scale — gains grow as the core shrinks", hookBase: true, variants: []variant{
		{"8-wide", "8-wide (Table 4)", func(*core.Config) {}},
		{"4-wide", "", shrink(4, 3, 2, 2)},
		{"2-wide", "", shrink(2, 2, 1, 1)},
	}},
	// §5: "we found that the trace cache actually had a negligible effect
	// on the results".
	{name: "abl-tc", title: "Ablation (§5 claim): trace cache on/off — near-identical results", hookBase: true, variants: []variant{
		{"with-tc", "with TC", func(*core.Config) {}},
		{"without-tc", "without TC", func(c *core.Config) { c.TraceCacheBytes = 0 }},
	}},
}

// studyDrivers returns one driver per study, in report order.
func studyDrivers() []driver {
	ds := make([]driver, len(studies))
	for i, s := range studies {
		ds[i] = s.table
	}
	return ds
}
