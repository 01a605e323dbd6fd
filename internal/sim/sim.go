// Package sim wires the substrates together: it builds the paper's
// configurations (Table 5) around the Table 4 machine, runs workloads on
// the core, attaches the energy model, and implements one driver per
// table/figure of the evaluation (§6). Each driver returns a Table of
// named quantities ("<table>/<row>/<column>"); Artifacts lists them in
// report order for cmd/mmtbench and the benchmark suite, and one renderer,
// Table.String, prints them.
package sim

import (
	"fmt"
	"math"

	"mmt/internal/cache"
	"mmt/internal/core"
	"mmt/internal/power"
	"mmt/internal/workloads"
)

// Preset names the design points of Table 5.
type Preset string

const (
	// PresetBase is the traditional SMT with a trace cache.
	PresetBase Preset = "Base"
	// PresetMMTF adds shared fetch only (always splitting at decode).
	PresetMMTF Preset = "MMT-F"
	// PresetMMTFX adds shared execution.
	PresetMMTFX Preset = "MMT-FX"
	// PresetMMTFXR adds register merging.
	PresetMMTFXR Preset = "MMT-FXR"
	// PresetLimit is MMT-FXR running instances with identical inputs —
	// the upper bound on attainable sharing.
	PresetLimit Preset = "Limit"
)

// Presets lists the Table 5 configurations in presentation order.
func Presets() []Preset {
	return []Preset{PresetBase, PresetMMTF, PresetMMTFX, PresetMMTFXR, PresetLimit}
}

// Configure returns the core configuration for a preset at the given
// thread count (Table 4 parameters otherwise).
func Configure(p Preset, threads int) (core.Config, error) {
	cfg := core.DefaultConfig(threads)
	switch p {
	case PresetBase:
		cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge = false, false, false
	case PresetMMTF:
		cfg.SharedExec, cfg.RegMerge = false, false
	case PresetMMTFX:
		cfg.RegMerge = false
	case PresetMMTFXR, PresetLimit:
		// all mechanisms on
	default:
		return core.Config{}, fmt.Errorf("sim: unknown preset %q", p)
	}
	// Guard against runaway experiments; generously above any workload's
	// real cycle count.
	cfg.MaxCycles = 500_000_000
	return cfg, nil
}

// IdenticalInputs reports whether the preset runs instances with identical
// inputs (the Limit setup).
func (p Preset) IdenticalInputs() bool { return p == PresetLimit }

// Result is one finished simulation.
type Result struct {
	App     string
	Preset  Preset
	Threads int
	Stats   *core.Stats
	Mem     cache.Events
	Energy  power.Breakdown
	// EnergyPerJob is total energy / committed per-thread instructions
	// (the paper's per-job metric).
	EnergyPerJob float64
}

// IPC returns the run's aggregate IPC.
func (r *Result) IPC() float64 { return r.Stats.IPC() }

// Run simulates one application under one preset. mutate, when non-nil,
// can adjust the configuration before the run (used by the sensitivity
// studies).
func Run(app workloads.App, p Preset, threads int, mutate func(*core.Config)) (*Result, error) {
	out, err := (Task{App: app, Preset: p, Threads: threads, Mutate: mutate}).Execute()
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// RunByName resolves the application by name and runs it.
func RunByName(name string, p Preset, threads int, mutate func(*core.Config)) (*Result, error) {
	app, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown application %q", name)
	}
	return Run(app, p, threads, mutate)
}

// Speedup returns base cycles / this run's cycles. Both runs must perform
// the same work (same app, same thread count).
func Speedup(base, opt *Result) float64 {
	if opt.Stats.Cycles == 0 {
		return 0
	}
	return float64(base.Stats.Cycles) / float64(opt.Stats.Cycles)
}

// Geomean of a slice of positive numbers.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
