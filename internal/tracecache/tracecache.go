// Package tracecache models the trace cache of the baseline core (§5 of
// the MMT paper: 1 MB, perfect trace prediction). Traces are built at
// commit from the retired instruction stream; a fetch-time hit means the
// front end follows the trace's path without waiting for its branches to
// resolve.
//
// The paper reports the trace cache had a negligible effect on its
// results; it is modeled here because the baseline is defined with it.
package tracecache

import "sync"

// Limits of one trace, following Rotenberg et al. [44].
const (
	MaxInsts    = 16
	MaxBranches = 3
)

// instSlotBytes approximates the storage cost of one instruction slot in
// the trace storage, used to convert the configured byte capacity into a
// trace budget.
const instSlotBytes = 8

// trace records one built trace.
type trace struct {
	startPC uint64
	insts   int
	lru     uint64
}

// TraceCache stores traces keyed by start PC with LRU replacement under a
// byte-capacity budget. Lookup is "perfect trace prediction": a resident
// trace is always usable.
type TraceCache struct {
	byStart  map[uint64]*trace
	capInsts int
	used     int
	clock    uint64
	// free holds evicted traces for the next Insert to reuse.
	free []*trace
}

// released holds released trace caches. Their storage (the map and the
// trace records) does not depend on the capacity, so any run may draw one.
var released sync.Pool

// New builds a trace cache with the given storage capacity in bytes
// (Table 4: 1 MB), reusing a released one when there is one. A zero or
// negative capacity disables the cache (every lookup misses).
func New(capacityBytes int) *TraceCache {
	tc, _ := released.Get().(*TraceCache)
	if tc == nil {
		tc = &TraceCache{byStart: make(map[uint64]*trace)}
	}
	tc.capInsts = capacityBytes / instSlotBytes
	return tc
}

// Release empties tc and hands it to the next New. tc must not be used
// afterwards. Releasing is optional: an unreleased cache is garbage
// collected.
func (tc *TraceCache) Release() {
	for _, t := range tc.byStart { // mmtvet:ok — collects the records, order-insensitive
		tc.free = append(tc.free, t)
	}
	clear(tc.byStart)
	tc.used, tc.clock = 0, 0
	released.Put(tc)
}

// Lookup reports whether a trace starting at pc is resident.
func (tc *TraceCache) Lookup(pc uint64) bool {
	t := tc.byStart[pc]
	if t == nil {
		return false
	}
	tc.clock++
	t.lru = tc.clock
	return true
}

// Insert records a trace of insts instructions built at commit. A
// resident trace with the same start PC is updated in place: it takes the
// newest LRU stamp first, so making room evicts only other traces.
func (tc *TraceCache) Insert(startPC uint64, insts int) {
	if tc.capInsts <= 0 || insts <= 0 {
		return
	}
	tc.clock++
	t := tc.byStart[startPC]
	keep := 0
	if t != nil {
		tc.used -= t.insts
		t.lru = tc.clock
		keep = 1
	}
	for tc.used+insts > tc.capInsts && len(tc.byStart) > keep {
		tc.evictLRU()
	}
	if t == nil {
		if n := len(tc.free); n > 0 {
			t = tc.free[n-1]
			tc.free = tc.free[:n-1]
		} else {
			t = new(trace)
		}
		*t = trace{startPC: startPC, lru: tc.clock}
		tc.byStart[startPC] = t
	}
	t.insts = insts
	tc.used += insts
}

func (tc *TraceCache) evictLRU() {
	// lru stamps are unique (the clock ticks on every touch), so the
	// minimum is well defined; the startPC tie-break keeps the choice
	// deterministic even if that ever changes.
	var victim *trace
	for _, t := range tc.byStart { // mmtvet:ok — unique-minimum selection
		if victim == nil || t.lru < victim.lru ||
			(t.lru == victim.lru && t.startPC < victim.startPC) {
			victim = t
		}
	}
	tc.used -= victim.insts
	delete(tc.byStart, victim.startPC)
	tc.free = append(tc.free, victim)
}

// Builder accumulates the committed instruction stream of one thread into
// traces and inserts them into the shared trace cache. Call Retire for
// every committed instruction in order.
type Builder struct {
	tc       *TraceCache
	startPC  uint64
	insts    int
	branches int
	started  bool
}

// NewBuilder returns a per-thread trace builder feeding tc. It returns a
// value, so a core keeps its builders inline.
func NewBuilder(tc *TraceCache) Builder { return Builder{tc: tc} }

// Retire feeds one committed instruction. taken marks a taken control
// instruction (which ends a basic block inside the trace).
func (b *Builder) Retire(pc uint64, taken bool) {
	if !b.started {
		b.startPC = pc
		b.started = true
	}
	b.insts++
	if taken {
		b.branches++
	}
	if b.insts >= MaxInsts || b.branches >= MaxBranches {
		b.flush()
	}
}

func (b *Builder) flush() {
	if b.started && b.insts > 0 {
		b.tc.Insert(b.startPC, b.insts)
	}
	b.started = false
	b.insts = 0
	b.branches = 0
}
