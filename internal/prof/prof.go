// Package prof is the per-PC attribution profiler and CPI-stack cycle
// accounting layer. A Profiler is an obs.Recorder: attached to a
// simulated core (Core.Attach, alone or through obs.Multi beside the
// timeline sinks) it reads the core's event stream, charges every
// committed uop, divergence, remerge, catchup cycle and LVIP event to the
// static instruction that caused it, and attributes every core cycle to
// one CPI-stack component (base / fetch-stall / catchup / rollback /
// drain). The snapshot, Profile, is a self-describing JSON document
// (SchemaVersion) that travels inside sim.Outcome — through the memo, the
// persistent result cache and the serving API — and renders as a ranked
// top-N text report.
package prof

import (
	"encoding/json"
	"fmt"
	"sort"

	"mmt/internal/core"
	"mmt/internal/obs"
)

// SchemaVersion identifies the Profile JSON layout. Parsers reject other
// versions instead of misreading renamed fields.
//
// History: 1 initial layout; 2 added RemergeEdges (observed
// divergence->reconvergence edges for static cross-validation).
const SchemaVersion = 2

// DefaultMaxSites bounds the per-PC map: attribution beyond the first
// DefaultMaxSites distinct PCs (in deterministic simulation order) pools
// into the overflow site, so pathological programs cannot grow a profile
// without bound.
const DefaultMaxSites = 4096

// SiteStats is everything attributed to one static PC.
type SiteStats struct {
	PC uint64 `json:"pc"`
	// Committed uop classification (per-uop, not per-thread): merged
	// executed once for several threads, split fetched merged but
	// executed per-thread, solo fetched alone.
	Merged uint64 `json:"merged,omitempty"`
	Split  uint64 `json:"split,omitempty"`
	Solo   uint64 `json:"solo,omitempty"`
	// Divergences counts group splits at this control instruction;
	// Remerges counts reunifications of groups this site split, with
	// RemergeDistSum accumulating their divergence-to-remerge distances
	// in taken branches (avg = RemergeDistSum/Remerges).
	Divergences    uint64 `json:"divergences,omitempty"`
	Remerges       uint64 `json:"remerges,omitempty"`
	RemergeDistSum uint64 `json:"remerge_dist_sum,omitempty"`
	// CatchupCycles counts cycles some behind group spent catching up
	// after diverging at this site.
	CatchupCycles uint64 `json:"catchup_cycles,omitempty"`
	// LVIP accounting for merged loads at this PC: verified-identical
	// hits, failed verifications, the redirect cycles they cost, and the
	// uops they squashed.
	LVIPHits        uint64 `json:"lvip_hits,omitempty"`
	LVIPMispredicts uint64 `json:"lvip_mispredicts,omitempty"`
	RollbackCycles  uint64 `json:"rollback_cycles,omitempty"`
	SquashedUops    uint64 `json:"squashed_uops,omitempty"`
}

// Cost is the ranking key for "what did this site cost the machine":
// cycles burned catching up after its divergences plus cycles burned
// rolling back its LVIP mispredicts.
func (s *SiteStats) Cost() uint64 { return s.CatchupCycles + s.RollbackCycles }

// add accumulates o into s (PC is kept).
func (s *SiteStats) add(o *SiteStats) {
	s.Merged += o.Merged
	s.Split += o.Split
	s.Solo += o.Solo
	s.Divergences += o.Divergences
	s.Remerges += o.Remerges
	s.RemergeDistSum += o.RemergeDistSum
	s.CatchupCycles += o.CatchupCycles
	s.LVIPHits += o.LVIPHits
	s.LVIPMispredicts += o.LVIPMispredicts
	s.RollbackCycles += o.RollbackCycles
	s.SquashedUops += o.SquashedUops
}

// zero reports whether nothing was attributed to the site.
func (s *SiteStats) zero() bool { return *s == SiteStats{PC: s.PC} }

// CPIStack decomposes a run's cycles into exclusive components; the
// fields sum to the profile's Cycles.
type CPIStack struct {
	Base       uint64 `json:"base"`
	FetchStall uint64 `json:"fetch_stall"`
	Catchup    uint64 `json:"catchup"`
	Rollback   uint64 `json:"rollback"`
	Drain      uint64 `json:"drain"`
}

// Total sums the stack's components.
func (c CPIStack) Total() uint64 {
	return c.Base + c.FetchStall + c.Catchup + c.Rollback + c.Drain
}

// Components returns the stack in display order with stable names.
func (c CPIStack) Components() []struct {
	Name   string
	Cycles uint64
} {
	return []struct {
		Name   string
		Cycles uint64
	}{
		{"base", c.Base},
		{"fetch-stall", c.FetchStall},
		{"catchup", c.Catchup},
		{"rollback", c.Rollback},
		{"drain", c.Drain},
	}
}

// Profile is the serializable attribution snapshot.
type Profile struct {
	// Schema is SchemaVersion at write time; ParseProfile rejects
	// mismatches.
	Schema int `json:"schema"`
	// Cycles is the simulated cycle count the CPI stack decomposes.
	Cycles uint64   `json:"cycles"`
	CPI    CPIStack `json:"cpi"`
	// Sites is sorted by PC ascending (canonical order; rank with
	// TopSites).
	Sites []SiteStats `json:"sites,omitempty"`
	// Overflow pools attribution beyond the profiler's site cap (PC 0).
	Overflow *SiteStats `json:"overflow,omitempty"`
	// RemergeEdges are the observed (divergence site -> reconvergence PC)
	// pairs with occurrence counts, sorted by diverge then remerge PC.
	// Edges whose divergence site is unknown (PC 0, e.g. the initial
	// whole-machine groups merging at startup) are not recorded.
	RemergeEdges []RemergeEdge `json:"remerge_edges,omitempty"`
	// RemergeEdgesDropped counts edges beyond the profiler's cap.
	RemergeEdgesDropped uint64 `json:"remerge_edges_dropped,omitempty"`
}

// RemergeEdge is one observed divergence->reconvergence pair.
type RemergeEdge struct {
	DivergePC uint64 `json:"diverge_pc"`
	RemergePC uint64 `json:"remerge_pc"`
	Count     uint64 `json:"count"`
}

// Profiler accumulates attribution from one single-threaded core's event
// stream. It is not safe for concurrent use (neither is the core driving
// it).
type Profiler struct {
	maxSites     int
	sites        map[uint64]*SiteStats
	overflow     SiteStats
	edges        map[RemergeEdge]uint64 // key has Count == 0
	edgesDropped uint64
	cpi          [core.NumCycleComponents]uint64
	cycles       uint64
}

var _ obs.Recorder = (*Profiler)(nil)

// New returns a profiler with the DefaultMaxSites site bound.
func New() *Profiler { return NewWithCap(DefaultMaxSites) }

// NewWithCap returns a profiler tracking at most maxSites distinct PCs;
// later sites pool into the overflow entry.
func NewWithCap(maxSites int) *Profiler {
	if maxSites < 1 {
		maxSites = 1
	}
	return &Profiler{
		maxSites: maxSites,
		sites:    make(map[uint64]*SiteStats),
		edges:    make(map[RemergeEdge]uint64),
	}
}

// site returns the stats cell charged for pc: nil for the unattributable
// PC 0, the pooled overflow cell past the cap.
func (p *Profiler) site(pc uint64) *SiteStats {
	if pc == 0 {
		return nil
	}
	if s, ok := p.sites[pc]; ok {
		return s
	}
	if len(p.sites) >= p.maxSites {
		return &p.overflow
	}
	s := &SiteStats{PC: pc}
	p.sites[pc] = s
	return s
}

// Event implements obs.Recorder: it charges each attribution-bearing event
// to its static PC and ignores the rest. A rollback's squashed uops
// arrive as the EvSquash that follows its EvRollback at the same PC.
func (p *Profiler) Event(e obs.Event) {
	switch e.Kind {
	case obs.EvCycle:
		if e.Arg < uint64(len(p.cpi)) {
			p.cpi[e.Arg]++
		}
		p.cycles++
	case obs.EvCommit:
		if s := p.site(e.PC); s != nil {
			switch core.CommitClass(e.Arg) {
			case core.CommitMerged:
				s.Merged++
			case core.CommitSplit:
				s.Split++
			default:
				s.Solo++
			}
		}
	case obs.EvDiverge:
		if s := p.site(e.PC); s != nil {
			s.Divergences++
		}
	case obs.EvRemerge:
		// Groups split at Site reunified at PC after Cost taken branches.
		if s := p.site(e.Site); s != nil {
			s.Remerges++
			s.RemergeDistSum += e.Cost
		}
		if e.Site == 0 || e.PC == 0 {
			return // unattributable (initial groups, drained stream)
		}
		k := RemergeEdge{DivergePC: e.Site, RemergePC: e.PC}
		if _, ok := p.edges[k]; !ok && len(p.edges) >= p.maxSites {
			p.edgesDropped++
			return
		}
		p.edges[k]++
	case obs.EvCatchupCycle:
		if s := p.site(e.PC); s != nil {
			s.CatchupCycles++
		}
	case obs.EvLVIPHit:
		if s := p.site(e.PC); s != nil {
			s.LVIPHits++
		}
	case obs.EvRollback:
		if s := p.site(e.PC); s != nil {
			s.LVIPMispredicts++
			s.RollbackCycles += e.Cost
		}
	case obs.EvSquash:
		if s := p.site(e.PC); s != nil {
			s.SquashedUops += e.Arg
		}
	}
}

// Sample implements obs.Recorder; occupancy samples carry no attribution.
func (p *Profiler) Sample(obs.Sample) {}

// Close implements obs.Recorder; the profile is read with Snapshot.
func (p *Profiler) Close() error { return nil }

// Snapshot renders the accumulated attribution as a Profile. Sites are
// sorted by PC; empty sites are dropped.
func (p *Profiler) Snapshot() *Profile {
	out := &Profile{
		Schema: SchemaVersion,
		Cycles: p.cycles,
		CPI: CPIStack{
			Base:       p.cpi[core.CycBase],
			FetchStall: p.cpi[core.CycFetchStall],
			Catchup:    p.cpi[core.CycCatchup],
			Rollback:   p.cpi[core.CycRollback],
			Drain:      p.cpi[core.CycDrain],
		},
	}
	for _, s := range p.sites { // mmtvet:ok — sorted by PC below
		if !s.zero() {
			out.Sites = append(out.Sites, *s)
		}
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].PC < out.Sites[j].PC })
	if !p.overflow.zero() {
		ov := p.overflow
		out.Overflow = &ov
	}
	for k, n := range p.edges { // mmtvet:ok — sortEdges below
		k.Count = n
		out.RemergeEdges = append(out.RemergeEdges, k)
	}
	sortEdges(out.RemergeEdges)
	out.RemergeEdgesDropped = p.edgesDropped
	return out
}

func sortEdges(es []RemergeEdge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].DivergePC != es[j].DivergePC {
			return es[i].DivergePC < es[j].DivergePC
		}
		return es[i].RemergePC < es[j].RemergePC
	})
}

// Validate checks structural invariants: the schema version and the
// CPI stack summing to the cycle count.
func (p *Profile) Validate() error {
	if p.Schema != SchemaVersion {
		return fmt.Errorf("prof: profile schema %d, this build reads %d", p.Schema, SchemaVersion)
	}
	if t := p.CPI.Total(); t != p.Cycles {
		return fmt.Errorf("prof: CPI stack sums to %d cycles, profile has %d", t, p.Cycles)
	}
	return nil
}

// Marshal renders the canonical JSON encoding (trailing newline, ready
// for a -profile-out file).
func (p *Profile) Marshal() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseProfile decodes and validates a profile written by Marshal (or
// embedded in an outcome).
func ParseProfile(b []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("prof: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Merge accumulates o into p site-wise (for aggregating profiles across
// jobs, e.g. a load run's per-job profiles).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	p.Cycles += o.Cycles
	p.CPI.Base += o.CPI.Base
	p.CPI.FetchStall += o.CPI.FetchStall
	p.CPI.Catchup += o.CPI.Catchup
	p.CPI.Rollback += o.CPI.Rollback
	p.CPI.Drain += o.CPI.Drain
	byPC := make(map[uint64]int, len(p.Sites))
	for i := range p.Sites {
		byPC[p.Sites[i].PC] = i
	}
	for i := range o.Sites {
		s := &o.Sites[i]
		if j, ok := byPC[s.PC]; ok {
			p.Sites[j].add(s)
		} else {
			p.Sites = append(p.Sites, *s)
		}
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].PC < p.Sites[j].PC })
	if o.Overflow != nil {
		if p.Overflow == nil {
			p.Overflow = &SiteStats{}
		}
		p.Overflow.add(o.Overflow)
	}
	if len(o.RemergeEdges) > 0 {
		byEdge := make(map[RemergeEdge]int, len(p.RemergeEdges))
		for i, e := range p.RemergeEdges {
			e.Count = 0
			byEdge[e] = i
		}
		for _, e := range o.RemergeEdges {
			k := e
			k.Count = 0
			if j, ok := byEdge[k]; ok {
				p.RemergeEdges[j].Count += e.Count
			} else {
				p.RemergeEdges = append(p.RemergeEdges, e)
			}
		}
		sortEdges(p.RemergeEdges)
	}
	p.RemergeEdgesDropped += o.RemergeEdgesDropped
}

// TopSites returns up to n sites ranked most-expensive first: attributed
// cycles (Cost), then divergences, then PC for determinism.
func (p *Profile) TopSites(n int) []SiteStats {
	ranked := append([]SiteStats(nil), p.Sites...)
	sort.Slice(ranked, func(i, j int) bool {
		a, b := &ranked[i], &ranked[j]
		if a.Cost() != b.Cost() {
			return a.Cost() > b.Cost()
		}
		if a.Divergences != b.Divergences {
			return a.Divergences > b.Divergences
		}
		return a.PC < b.PC
	})
	if n > 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	return ranked
}
