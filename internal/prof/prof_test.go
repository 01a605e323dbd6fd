package prof

import (
	"reflect"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/prog"
)

// divergeSrc makes the two ME instances take different paths depending on
// a per-instance input, then re-join at "join" — one dominant divergence
// site (the bnez at "outer") for attribution to find.
const divergeSrc = `
        li    r4, input
        ld    r5, 0(r4)          ; per-instance input: 0 or 1
        li    r6, 0
        li    r7, 20
outer:  bnez  r5, odd
        addi  r6, r6, 1          ; even path
        addi  r6, r6, 3
        j     join
odd:    addi  r6, r6, 2         ; odd path: different length
        addi  r6, r6, 1
        addi  r6, r6, 1
join:   addi  r7, r7, -1
        bnez  r7, outer
        halt
        .data
input:  .word 0
`

// runProfiled simulates divergeSrc on two divergent ME instances with a
// profiler attached, and returns the run's stats and profile snapshot.
func runProfiled(t *testing.T) (*core.Stats, *Profile) {
	t.Helper()
	p, err := asm.Assemble("test", divergeSrc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := prog.NewSystem(p, prog.ModeME, 2, func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	c, err := core.New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	pr := New()
	c.Attach(pr, 0)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, pr.Snapshot()
}

// TestCPIStackSumsToCycles is the accounting invariant: every simulated
// cycle is charged to exactly one CPI-stack component.
func TestCPIStackSumsToCycles(t *testing.T) {
	st, p := runProfiled(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cycles != st.Cycles {
		t.Errorf("profile covers %d cycles, run took %d", p.Cycles, st.Cycles)
	}
	if got := p.CPI.Total(); got != st.Cycles {
		t.Errorf("CPI stack sums to %d, run took %d cycles", got, st.Cycles)
	}
	if p.CPI.Base == 0 {
		t.Error("no base cycles on a committing run")
	}
}

// TestTopSiteMatchesDivergenceHistogram: the profile must charge every
// divergence the core counted to some site, and the hottest divergence
// site must also have remerged.
func TestTopSiteMatchesDivergenceHistogram(t *testing.T) {
	st, p := runProfiled(t)
	if st.Divergences == 0 {
		t.Fatal("workload did not diverge")
	}
	var total uint64
	for _, site := range p.Sites {
		total += site.Divergences
	}
	if total != st.Divergences {
		t.Errorf("profile charges %d divergences, core counted %d", total, st.Divergences)
	}
	top := p.TopSites(0)
	if len(top) == 0 {
		t.Fatal("empty profile")
	}
	var topDiverge *SiteStats
	for i := range top {
		if top[i].Divergences > 0 {
			topDiverge = &top[i]
			break
		}
	}
	if topDiverge == nil {
		t.Fatal("no site with divergences in the profile")
	}
	if topDiverge.Remerges == 0 {
		t.Error("hot divergence site never remerged")
	}
}

// TestProfileJSONRoundTrip: Marshal → ParseProfile is lossless.
func TestProfileJSONRoundTrip(t *testing.T) {
	_, p := runProfiled(t)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip drifted:\nbefore %+v\nafter  %+v", p, got)
	}
}

// TestParseProfileRejectsOtherSchemas: a version bump must fail loudly,
// not decode garbage.
func TestParseProfileRejectsOtherSchemas(t *testing.T) {
	_, p := runProfiled(t)
	p.Schema = SchemaVersion + 1
	if _, err := p.Marshal(); err == nil {
		t.Error("Marshal accepted a foreign schema")
	}
	p.Schema = SchemaVersion
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"schema":99,"cycles":0,"cpi":{"base":0,"fetch_stall":0,"catchup":0,"rollback":0,"drain":0}}`)
	if _, err := ParseProfile(bad); err == nil {
		t.Error("ParseProfile accepted schema 99")
	}
	if _, err := ParseProfile(b[:len(b)/2]); err == nil {
		t.Error("ParseProfile accepted truncated JSON")
	}
}

// TestMergeDoubles: merging a profile into a fresh one twice doubles
// every additive quantity.
func TestMergeDoubles(t *testing.T) {
	_, p := runProfiled(t)
	m := &Profile{Schema: SchemaVersion}
	m.Merge(p)
	m.Merge(p)
	if m.Cycles != 2*p.Cycles || m.CPI.Total() != 2*p.CPI.Total() {
		t.Errorf("merged cycles=%d CPI=%d, want double of %d/%d", m.Cycles, m.CPI.Total(), p.Cycles, p.CPI.Total())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Sites) != len(p.Sites) {
		t.Fatalf("merged %d sites, source has %d", len(m.Sites), len(p.Sites))
	}
	for i := range p.Sites {
		if m.Sites[i].Merged != 2*p.Sites[i].Merged || m.Sites[i].Divergences != 2*p.Sites[i].Divergences {
			t.Errorf("site %#x not doubled: %+v vs %+v", p.Sites[i].PC, m.Sites[i], p.Sites[i])
		}
	}
}

// TestProfilerOverflowAndPC0: PC 0 is unattributable and dropped; sites
// past the cap pool into the overflow cell.
func TestProfilerOverflowAndPC0(t *testing.T) {
	p := NewWithCap(1)
	p.Event(obs.Event{Kind: obs.EvDiverge, PC: 0})    // PC 0: skipped
	p.Event(obs.Event{Kind: obs.EvDiverge, PC: 0x10}) // the one tracked site
	p.Event(obs.Event{Kind: obs.EvDiverge, PC: 0x20}) // past the cap: pooled
	p.Event(obs.Event{Kind: obs.EvCatchupCycle, PC: 0x20})
	p.Event(obs.Event{Kind: obs.EvCycle, Arg: uint64(core.CycBase)})
	s := p.Snapshot()
	if len(s.Sites) != 1 || s.Sites[0].PC != 0x10 || s.Sites[0].Divergences != 1 {
		t.Errorf("sites = %+v", s.Sites)
	}
	if s.Overflow == nil || s.Overflow.Divergences != 1 || s.Overflow.CatchupCycles != 1 {
		t.Errorf("overflow = %+v", s.Overflow)
	}
	if s.Cycles != 1 || s.CPI.Base != 1 {
		t.Errorf("cycles=%d cpi=%+v", s.Cycles, s.CPI)
	}
}

// TestProfilerChargesEvents: each attribution-bearing kind lands in its
// site's field, a rollback's squashed uops arrive with the EvSquash at
// its PC, and timeline-only kinds neither charge nor claim a site (with
// a one-site cap, a claimed 0x20 would pool 0x10 into the overflow).
func TestProfilerChargesEvents(t *testing.T) {
	p := NewWithCap(1)
	for _, e := range []obs.Event{
		{Kind: obs.EvMispredict, PC: 0x20},
		{Kind: obs.EvCatchupStart, PC: 0x20, Arg: 1},
		{Kind: obs.EvCommit, PC: 0x10, Arg: uint64(core.CommitMerged)},
		{Kind: obs.EvCommit, PC: 0x10, Arg: uint64(core.CommitSplit)},
		{Kind: obs.EvCommit, PC: 0x10, Arg: uint64(core.CommitSolo)},
		{Kind: obs.EvLVIPHit, PC: 0x10},
		{Kind: obs.EvRollback, PC: 0x10, Arg: 2, Cost: 5},
		{Kind: obs.EvSquash, PC: 0x10, Arg: 7},
		{Kind: obs.EvCycle, Arg: uint64(core.CycRollback)},
		{Kind: obs.EvCycle, Arg: uint64(core.CycDrain)},
	} {
		p.Event(e)
	}
	s := p.Snapshot()
	want := SiteStats{PC: 0x10, Merged: 1, Split: 1, Solo: 1, LVIPHits: 1,
		LVIPMispredicts: 1, RollbackCycles: 5, SquashedUops: 7}
	if len(s.Sites) != 1 || s.Sites[0] != want || s.Overflow != nil {
		t.Errorf("sites = %+v, overflow = %+v; want [%+v] and none", s.Sites, s.Overflow, want)
	}
	if s.Cycles != 2 || s.CPI != (CPIStack{Rollback: 1, Drain: 1}) {
		t.Errorf("cycles=%d cpi=%+v", s.Cycles, s.CPI)
	}
}

// TestRemergeEdges covers the edge ledger: unattributable endpoints are
// skipped, repeats accumulate, the snapshot is sorted, the cap counts
// drops, and Merge sums edge counts across shards.
func TestRemergeEdges(t *testing.T) {
	p := NewWithCap(2)
	remerge := func(divergePC, remergePC, dist uint64) {
		p.Event(obs.Event{Kind: obs.EvRemerge, PC: remergePC, Site: divergePC, Cost: dist})
	}
	remerge(0, 0x1020, 1) // unknown divergence site
	remerge(0x1010, 0, 1) // unknown remerge target
	remerge(0x1010, 0x1020, 3)
	remerge(0x1000, 0x1020, 1)
	remerge(0x1010, 0x1020, 2) // same edge again
	remerge(0x1030, 0x1040, 1) // third distinct edge: over the cap
	s := p.Snapshot()
	want := []RemergeEdge{
		{DivergePC: 0x1000, RemergePC: 0x1020, Count: 1},
		{DivergePC: 0x1010, RemergePC: 0x1020, Count: 2},
	}
	if !reflect.DeepEqual(s.RemergeEdges, want) {
		t.Errorf("edges = %+v, want %+v", s.RemergeEdges, want)
	}
	if s.RemergeEdgesDropped != 1 {
		t.Errorf("dropped = %d, want 1", s.RemergeEdgesDropped)
	}

	m := &Profile{Schema: SchemaVersion}
	m.Merge(s)
	m.Merge(s)
	if got := m.RemergeEdges[1].Count; got != 4 {
		t.Errorf("merged edge count = %d, want 4", got)
	}
	if m.RemergeEdgesDropped != 2 {
		t.Errorf("merged dropped = %d, want 2", m.RemergeEdgesDropped)
	}
}

// TestRemergeEdgesObserved: a real divergent run records edges, and every
// edge's divergence endpoint is a site the profiler saw diverge.
func TestRemergeEdgesObserved(t *testing.T) {
	_, profile := runProfiled(t)
	if len(profile.RemergeEdges) == 0 {
		t.Fatal("divergent run recorded no remerge edges")
	}
	diverged := map[uint64]bool{}
	for _, s := range profile.Sites {
		if s.Divergences > 0 {
			diverged[s.PC] = true
		}
	}
	for _, e := range profile.RemergeEdges {
		if e.Count == 0 {
			t.Errorf("edge %#x->%#x has zero count", e.DivergePC, e.RemergePC)
		}
		if !diverged[e.DivergePC] {
			t.Errorf("edge %#x->%#x: divergence PC has no recorded divergence", e.DivergePC, e.RemergePC)
		}
	}
}
