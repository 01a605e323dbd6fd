package core

import (
	"mmt/internal/isa"
	"mmt/internal/pool"
	"mmt/internal/tracecache"
)

// Storage lifecycle. A run fills megabytes of buffers — record rings,
// uops and their consumer lists, queues, predictor tables, tag stores —
// and an evaluation runs thousands of short simulations of one machine.
// New draws every buffer from process-wide pools, keyed by the geometry
// the buffer depends on, and Release resets them to their freshly built
// state and returns them:
//
//   - the core's own storage below, keyed by FHB and LVIP size: record
//     rings, uop slabs, queues and lists, fetch groups, FHBs, the LVIP,
//     the RST, the writer tables and the statistics. The Core embeds it
//     by value: New copies it in and Release copies it back out;
//   - the cache hierarchy (cache.Hierarchy.Release, keyed by
//     cache.HierarchyConfig), which clears only the sets a run filled;
//   - the branch predictors (branch.Unit.Release, keyed by branch.Config);
//   - the trace cache (tracecache.TraceCache.Release).
//
// The Core value itself is not pooled, so a recorder attached to it never
// outlives its run. Release is optional: a core that is never released is
// garbage collected like any value. A released core must not be used
// again, and neither may a pointer it returned (Stats): copy what outlives
// the run first.

// uopSlab is the number of uops a storage allocates at once.
const uopSlab = 256

// storageKey is the geometry a storage's buffers are sized by.
type storageKey struct{ fhbSize, lvipSize int }

// storages holds released storage by geometry.
var storages pool.Keyed[storageKey, *storage]

// storage is everything a run grows or fills that a later run of the same
// FHB and LVIP sizes can reuse. Nothing in it points outside it once it is
// reset: a released storage keeps no program, recorder or result alive.
// No field of it points into it either: the Core copies it in and out,
// which would leave such a pointer at the old copy.
type storage struct {
	key storageKey

	streamBuf [MaxThreads]stream
	groups    []*group
	fhbBuf    [MaxThreads]FHB
	rst       RST
	lvip      LVIP
	tb        [MaxThreads]tracecache.Builder

	fetchQ uopQueue
	window uopQueue // renamed, in seq order (the ROB contents)
	robQ   [MaxThreads]uopQueue
	// ready holds the renamed uops whose operands are available and
	// executing the issued ones not yet done, both in seq order, so
	// issue and complete walk them instead of the window.
	ready, executing []*uop
	// memQ holds the in-flight stores in seq order. memQStale says a
	// store in it committed or was squashed since the last filter.
	memQ      []*uop
	memQStale bool

	// slabs hold every uop the storage ever built; the first nUops have
	// been handed out by newUop since the last reset.
	slabs []*[uopSlab]uop
	nUops int
	// freeUops and freeGroups hold retired uops and fetch groups for
	// reuse within the run (see uop.go and newGroup). deadGroups
	// collects the groups liveGroups drops during a fetch stage; they
	// join freeGroups at its end, once fetch no longer walks them.
	freeUops   []*uop
	freeGroups []*group
	deadGroups []*group

	// scratch is working storage the stages reuse every cycle, so the
	// cycle loop does not allocate.
	scratch struct {
		order, normal, engaged []*group // fetchOrder
		classes                [MaxThreads]ITID
		regMerge               [MaxThreads]bool // splitUop's LVIP expansion
	}

	lastWriter    [MaxThreads][isa.NumRegs]*uop
	activeWriters [MaxThreads][isa.NumRegs]int
	committedReg  [MaxThreads][isa.NumRegs]uint64

	stats Stats
}

// drawStorage returns reset storage for cfg: a released one of the same
// geometry when the pool holds one, else a new one.
func drawStorage(cfg Config) *storage {
	key := storageKey{fhbSize: cfg.FHBSize, lvipSize: cfg.LVIPSize}
	if s, ok := storages.Get(key); ok {
		return s
	}
	s := &storage{
		key:       key,
		lvip:      *NewLVIP(cfg.LVIPSize),
		ready:     make([]*uop, 0, cfg.IQSize),
		executing: make([]*uop, 0, cfg.ROBSize),
	}
	for t := range s.fhbBuf {
		s.fhbBuf[t] = *NewFHB(cfg.FHBSize)
	}
	return s
}

// Release hands the core's storage, cache hierarchy, predictors and trace
// cache back to the pools New draws from (see the storage lifecycle
// above). The core must not be used afterwards; a second Release panics.
func (c *Core) Release() {
	s := c.home
	if s == nil {
		panic("core: Release of a released core")
	}
	c.bp.Release()
	c.mem.Release()
	if c.tc != nil {
		c.tc.Release()
	}
	*s = c.storage
	c.storage, c.home = storage{}, nil
	c.bp, c.mem, c.tc, c.sys = nil, nil, nil, nil
	c.streams, c.fhb = nil, nil
	s.reset()
	storages.Put(s.key, s)
}

// reset returns s to the state drawStorage builds, keeping the capacity
// of every buffer. It resets each uop the run handed out, the free ones
// included, so newUop's slab uops are as fresh as new ones.
func (s *storage) reset() {
	for i := range s.streamBuf {
		s.streamBuf[i].reset()
	}
	for i := range s.fhbBuf {
		s.fhbBuf[i].reset()
	}
	s.lvip.reset()
	s.tb = [MaxThreads]tracecache.Builder{}

	s.fetchQ.reset()
	s.window.reset()
	for i := range s.robQ {
		s.robQ[i].reset()
	}
	s.ready, s.executing, s.memQ = s.ready[:0], s.executing[:0], s.memQ[:0]
	s.memQStale = false

	for i := 0; i < s.nUops; i++ {
		s.slabs[i/uopSlab][i%uopSlab].reset()
	}
	s.nUops = 0
	s.freeUops = s.freeUops[:0]
	s.freeGroups = append(append(s.freeGroups, s.groups...), s.deadGroups...)
	s.groups, s.deadGroups = s.groups[:0], s.deadGroups[:0]

	s.lastWriter = [MaxThreads][isa.NumRegs]*uop{}
	s.activeWriters = [MaxThreads][isa.NumRegs]int{}
	s.committedReg = [MaxThreads][isa.NumRegs]uint64{}
	s.stats = Stats{}
}
