package sim

import (
	"fmt"

	"mmt/internal/asm"
	"mmt/internal/prog"
	"mmt/internal/workloads"
)

// Multi-programmed co-scheduling (paper §4.4: "The scheduler needs to gang
// schedule the threads in pairs or larger groups"): two instances each of
// two different applications share one 4-thread core. The programs occupy
// disjoint text segments, so MMT can only merge within each gang — the
// experiment measures how much of the two-thread benefit survives a mixed
// workload.

// altCodeBase/altDataBase place the second program clear of the first.
const (
	altCodeBase = 0x0008_0000
	altDataBase = 0x0030_0000
)

// CoschedulePairs is the mixed-workload set: one high-sharing and one
// low-sharing application per pair.
var CoschedulePairs = [][2]string{
	{"ammp", "twolf"},
	{"equake", "mcf"},
	{"libsvm", "vpr"},
}

// buildCoschedule assembles a at the default bases and b at the alternate
// bases, and builds a 4-context system: contexts 0,1 run a (instances 0,1)
// and contexts 2,3 run b (instances 0,1).
func buildCoschedule(a, b workloads.App) (*prog.System, error) {
	if a.Mode != prog.ModeME || b.Mode != prog.ModeME {
		return nil, fmt.Errorf("sim: co-scheduling is defined for multi-execution apps (got %s/%s)", a.Mode, b.Mode)
	}
	pa, err := asm.Assemble(a.Name, a.Source)
	if err != nil {
		return nil, err
	}
	pb, err := asm.AssembleAt(b.Name, b.Source, altCodeBase, altDataBase)
	if err != nil {
		return nil, err
	}
	init := func(ctx int, mem *prog.Memory) {
		switch {
		case ctx < 2 && a.Init != nil:
			a.Init(pa, ctx, mem, false)
		case ctx >= 2 && b.Init != nil:
			b.Init(pb, ctx-2, mem, false)
		}
	}
	return prog.NewMultiSystem([]*prog.Program{pa, pa, pb, pb}, init)
}

// coschedTask describes one pair/preset point as a custom-build task; the
// Variant string carries the pair identity into the content-addressed key.
func coschedTask(a, b workloads.App, p Preset) Task {
	return Task{
		Variant: "cosched:" + a.Name + "+" + b.Name,
		Preset:  p,
		Threads: 4,
		Build:   func() (*prog.System, error) { return buildCoschedule(a, b) },
	}
}

// extensionCoschedule runs the mixed-workload study: per pair, MMT-FXR's
// speedup over Base (both co-scheduled), its MERGE residency and its
// execute-identical share.
func extensionCoschedule(ex Exec, _ []workloads.App) (*Table, error) {
	t := &Table{Name: "cosched", Title: "Extension (paper §4.4): gang-scheduled mixed workloads, 4 threads",
		Label: "%-16s", Head: "pair (2+2)", Cols: []Column{num("speedup", 9), pct("MERGE", 8), pct("exec-ident", 12)}}
	var tasks []Task
	for _, pair := range CoschedulePairs {
		a, ok := workloads.ByName(pair[0])
		if !ok {
			return nil, fmt.Errorf("sim: unknown app %q", pair[0])
		}
		b, ok := workloads.ByName(pair[1])
		if !ok {
			return nil, fmt.Errorf("sim: unknown app %q", pair[1])
		}
		tasks = append(tasks, coschedTask(a, b, PresetBase), coschedTask(a, b, PresetMMTFXR))
	}
	rs, err := collect(ex, tasks)
	if err != nil {
		return nil, err
	}
	for i, pair := range CoschedulePairs {
		base, fxr := rs[2*i], rs[2*i+1]
		m, _, _ := fxr.Stats.FetchModeFractions()
		x, xr, _, _ := fxr.Stats.IdenticalFractions()
		t.add(pair[0]+"+"+pair[1], Speedup(base, fxr), m, x+xr)
	}
	return t, nil
}
