// Package power implements an event-based energy model in the spirit of
// Wattch [46]: every micro-architectural structure has a per-access energy,
// total energy is Σ events × energy + cycles × static power. Constants are
// stated for a 32 nm-class core (the paper scales its 90 nm Synopsys
// numbers to 32 nm); only *relative* energy between configurations is
// meaningful, exactly as in the paper's Fig. 6.
package power

import (
	"sort"

	"mmt/internal/cache"
	"mmt/internal/core"
)

// Energy units are picojoules (pJ); powers in pJ/cycle.

// PerAccess holds the per-event energies.
type PerAccess struct {
	// Caches.
	L1I  float64
	L1D  float64
	L2   float64
	DRAM float64

	// Core structures.
	Fetch     float64 // decode/fetch pipeline per instruction
	Rename    float64
	IQWrite   float64
	FUOp      float64
	RegRead   float64
	RegWrite  float64
	Commit    float64
	Predictor float64

	// MMT overhead structures (paper Table 3 / §6.2).
	RSTUpdate     float64
	FHBInsert     float64
	FHBSearch     float64 // CAM search
	LVIPLookup    float64
	SplitOp       float64
	RegMergeCheck float64
}

// DefaultPerAccess returns per-access energies for a 32 nm-class 8-wide
// core. Values follow the relative magnitudes CACTI/Wattch-style models
// produce: large SRAM arrays (L2, DRAM interface) dominate, small CAMs and
// tables are one to two orders of magnitude cheaper, and the MMT additions
// are tiny (the paper measures their total below 2% of core power).
func DefaultPerAccess() PerAccess {
	return PerAccess{
		L1I:  60,
		L1D:  70,
		L2:   420,
		DRAM: 8000,

		Fetch:     18,
		Rename:    12,
		IQWrite:   10,
		FUOp:      25,
		RegRead:   8,
		RegWrite:  10,
		Commit:    10,
		Predictor: 6,

		RSTUpdate:     0.8,
		FHBInsert:     0.8,
		FHBSearch:     1.8, // 32-entry CAM
		LVIPLookup:    1.5,
		SplitOp:       1.6,
		RegMergeCheck: 6.0, // an extra register-file read + compare
	}
}

// StaticPerCycle is the leakage + clock-tree energy charged every cycle
// (pJ/cycle), for the whole core.
const StaticPerCycle = 120.0

// Breakdown is the Fig. 6 energy decomposition.
type Breakdown struct {
	Cache    float64 // pJ spent in the cache hierarchy
	Overhead float64 // pJ spent in the MMT additions
	Other    float64 // everything else (core + static)
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Cache + b.Overhead + b.Other }

// Model computes energies from simulation statistics.
type Model struct {
	Per PerAccess
}

// NewModel returns a model with the default constants.
func NewModel() *Model { return &Model{Per: DefaultPerAccess()} }

// Energy computes the energy breakdown for a finished run.
func (m *Model) Energy(st *core.Stats, ev cache.Events) Breakdown {
	p := m.Per
	var b Breakdown
	b.Cache = float64(ev.L1IAccesses)*p.L1I +
		float64(ev.L1DAccesses)*p.L1D +
		float64(ev.L2Accesses)*p.L2 +
		float64(ev.DRAMAccesses)*p.DRAM

	b.Overhead = float64(st.RSTUpdates)*p.RSTUpdate +
		float64(st.FHBInserts)*p.FHBInsert +
		float64(st.FHBSearches)*p.FHBSearch +
		float64(st.LVIPLookups)*p.LVIPLookup +
		float64(st.SplitOps)*p.SplitOp +
		float64(st.RegMergeCompares)*p.RegMergeCheck

	b.Other = float64(st.FetchAccesses)*p.Fetch +
		float64(st.RenamedUops)*(p.Rename+p.IQWrite) +
		float64(st.FUOps)*p.FUOp +
		float64(st.RegReads)*p.RegRead +
		float64(st.RegWrites)*p.RegWrite +
		float64(st.CommittedUops)*p.Commit +
		float64(st.BranchUops)*p.Predictor +
		float64(st.Cycles)*StaticPerCycle
	return b
}

// EnergyPerJob normalizes a run's energy by the work performed (committed
// per-thread instructions), the paper's "energy per job completed" metric.
func (m *Model) EnergyPerJob(st *core.Stats, ev cache.Events) float64 {
	total := st.TotalCommitted()
	if total == 0 {
		return 0
	}
	return m.Energy(st, ev).Total() / float64(total)
}

// Detailed returns the per-structure energy decomposition (pJ), keyed by
// structure name — the data behind Breakdown, at full resolution.
func (m *Model) Detailed(st *core.Stats, ev cache.Events) map[string]float64 {
	p := m.Per
	return map[string]float64{
		"l1i":       float64(ev.L1IAccesses) * p.L1I,
		"l1d":       float64(ev.L1DAccesses) * p.L1D,
		"l2":        float64(ev.L2Accesses) * p.L2,
		"dram":      float64(ev.DRAMAccesses) * p.DRAM,
		"fetch":     float64(st.FetchAccesses) * p.Fetch,
		"rename":    float64(st.RenamedUops) * (p.Rename + p.IQWrite),
		"fu":        float64(st.FUOps) * p.FUOp,
		"regread":   float64(st.RegReads) * p.RegRead,
		"regwrite":  float64(st.RegWrites) * p.RegWrite,
		"commit":    float64(st.CommittedUops) * p.Commit,
		"predictor": float64(st.BranchUops) * p.Predictor,
		"static":    float64(st.Cycles) * StaticPerCycle,
		"rst":       float64(st.RSTUpdates) * p.RSTUpdate,
		"fhb":       float64(st.FHBInserts)*p.FHBInsert + float64(st.FHBSearches)*p.FHBSearch,
		"lvip":      float64(st.LVIPLookups) * p.LVIPLookup,
		"split":     float64(st.SplitOps) * p.SplitOp,
		"regmerge":  float64(st.RegMergeCompares) * p.RegMergeCheck,
	}
}

// overheadKeys are the MMT-added structures within Detailed.
var overheadKeys = []string{"rst", "fhb", "lvip", "split", "regmerge"}

// cacheKeys are the memory-hierarchy structures within Detailed.
var cacheKeys = []string{"l1i", "l1d", "l2", "dram"}

// Component is one named structure's energy in a serialized breakdown.
// Detailed returns a map, whose Go-side iteration order is random;
// artifacts that embed energy breakdowns (mmtdse studies) serialize the
// sorted Component form instead, so the bytes are stable across runs and
// processes.
type Component struct {
	Name string  `json:"name"`
	PJ   float64 `json:"pj"`
}

// Components renders a Detailed map as a name-sorted slice — the
// canonical, byte-stable serialization order. Zero-energy structures are
// kept, so two breakdowns of the same model always align entry for entry.
func Components(detail map[string]float64) []Component {
	out := make([]Component, 0, len(detail))
	for name, pj := range detail { // mmtvet:ok — sorted immediately below
		out = append(out, Component{Name: name, PJ: pj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ComponentsMap inverts Components back into the Detailed map form; the
// round trip Components(ComponentsMap(cs)) is the identity on canonical
// (sorted, duplicate-free) slices.
func ComponentsMap(cs []Component) map[string]float64 {
	m := make(map[string]float64, len(cs))
	for _, c := range cs {
		m[c.Name] = c.PJ
	}
	return m
}

// DetailedComponents is Detailed in canonical serialized form.
func (m *Model) DetailedComponents(st *core.Stats, ev cache.Events) []Component {
	return Components(m.Detailed(st, ev))
}

// AddComponents accumulates one breakdown into a running total keyed by
// structure name (for aggregating a breakdown across workloads).
func AddComponents(total map[string]float64, cs []Component) {
	for _, c := range cs {
		total[c.Name] += c.PJ
	}
}
