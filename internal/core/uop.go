package core

import "mmt/internal/isa"

// uopState tracks a micro-op through the window.
type uopState uint8

const (
	uopWaiting   uopState = iota // in IQ, operands outstanding
	uopReady                     // operands available, not yet issued
	uopIssued                    // executing
	uopDone                      // result available
	uopCommitted                 // retired
	uopSquashed                  // rolled back (LVIP mispredict)
	uopFree                      // on the Core's free list, awaiting reuse
)

// FetchMode is the instruction-fetch synchronization mode (paper Fig. 3a).
type FetchMode uint8

const (
	// FetchMerge: thread group fetching one shared instruction stream.
	FetchMerge FetchMode = iota
	// FetchDetect: threads on divergent paths, recording taken-branch
	// targets and searching for a remerge point.
	FetchDetect
	// FetchCatchup: a remerge point was found; the behind thread fetches
	// with boosted priority to re-join the ahead thread.
	FetchCatchup
)

func (m FetchMode) String() string {
	switch m {
	case FetchMerge:
		return "MERGE"
	case FetchDetect:
		return "DETECT"
	case FetchCatchup:
		return "CATCHUP"
	}
	return "?"
}

// destUndo records the rename-time RST state a uop overwrote, so an LVIP
// rollback can restore the speculative mapping table.
type destUndo struct {
	oldVer     uint64
	oldByMerge bool
	valid      bool
}

// uop is one micro-op in the machine. A uop fetched for several threads
// carries their ITID; after the split stage its itid reflects the threads
// it executes for (execute-identical), while fetchITID remembers the fetch
// grouping.
type uop struct {
	seq   uint64 // global age
	pc    uint64
	inst  isa.Inst
	class isa.Class

	itid      ITID // threads this uop executes/commits for
	fetchITID ITID // threads it was fetched for
	mode      FetchMode

	// dynIdx is each member thread's dynamic-instruction index: it
	// locates the member's oracle record (Core.eff) and the stream
	// rewind point on rollback.
	dynIdx [MaxThreads]uint64

	state     uopState
	ndeps     int
	consumers []*uop
	doneAt    uint64

	// Split bookkeeping.
	forcedSplit      bool // merged ME load demoted by an LVIP mispredict
	regMergeAssisted bool // execute-identical thanks to register merging

	// Memory behaviour.
	isLoad  bool
	isStore bool
	// memPerThread: the LSQ performs one access per member thread
	// (multi-execution workloads; paper Table 2).
	memPerThread bool
	lsqSlots     int

	// LVIP: merged private-memory load predicted value-identical.
	lvipPredIdent bool
	// sharedVerify: merged shared-memory load whose same-value assumption
	// is verified at completion (an intervening racy write rolls back).
	sharedVerify bool

	// Rename undo state per member thread.
	destUndo [MaxThreads]destUndo
	destVer  [MaxThreads]uint64 // version installed for each member

	// Control handling: groups whose fetch stalls until this (mis-
	// predicted) control uop resolves.
	stalledGroups []*group

	// pieces[:npieces] caches the split-stage result while the uop waits
	// in the fetch queue for rename bandwidth (the split latch); pieces[0]
	// is the uop itself. npieces == 0 means not split yet.
	pieces  [MaxThreads]*uop
	npieces int

	halt bool
}

// isMem reports whether the uop uses the LSQ.
func (u *uop) isMem() bool { return u.isLoad || u.isStore }

// execIdentical reports whether this uop executes once for several threads.
func (u *uop) execIdentical() bool { return u.itid.Count() >= 2 && !u.forcedSplit }

// fetchIdenticalOnly reports a uop fetched for several threads but split
// for execution.
func (u *uop) fetchIdenticalOnly() bool {
	return u.fetchITID.Count() >= 2 && !u.execIdentical()
}

// leader returns the representative thread id.
func (u *uop) leader() int { return u.itid.First() }

// eff returns member thread t's oracle effect for u, read in place from
// t's record ring: the record stays buffered until u commits, because
// commit releases it last.
func (c *Core) eff(u *uop, t int) *isa.Effect {
	return &c.streams[t].at(u.dynIdx[t]).eff
}

// Uop lifetime. Uops live in the storage's slabs (storage.go) and are
// recycled through a free list instead of being left to the garbage
// collector: the cycle loop makes one per fetched instruction and split
// piece, and allocating them dominated the simulator's host time. A uop
// goes back on the list only when nothing can reach it any more:
//
//   - compactWindow drops a committed or squashed uop off the window head.
//     It has left every ROB queue, the ready and executing lists and the
//     store queue, commit or the squash cleared it from lastWriter, and
//     fetch groups stalled on it were released when it completed or was
//     squashed. A uop's consumers are younger than it, and the window
//     compacts in seq order, so no live uop lists it as a consumer.
//   - squashYounger drops a fully squashed, never renamed uop from the
//     fetch queue, releasing the groups stalled on it. When it
//     invalidates a queued uop's split latch, the split-off pieces are
//     recycled too, and the groups waiting on them go back to waiting on
//     the queued uop (dropSplitLatch).

// newUop returns a uop for buildUop or cloneUop to fill in: a recycled
// one when the free list has any, else the next untouched uop of the
// storage's slabs. A recycled uop keeps the capacity of its consumers and
// stalledGroups lists, and freeUop reset what its filler does not write;
// a slab uop is zero but for that capacity (uop.reset).
func (c *Core) newUop() *uop {
	n := len(c.freeUops)
	if n > 0 {
		u := c.freeUops[n-1]
		c.freeUops = c.freeUops[:n-1]
		u.state = uopWaiting
		return u
	}
	if c.nUops == len(c.slabs)*uopSlab {
		c.slabs = append(c.slabs, new([uopSlab]uop))
	}
	u := &c.slabs[c.nUops/uopSlab][c.nUops%uopSlab]
	c.nUops++
	return u
}

// reset zeroes u for a later run, keeping the capacity of its lists.
func (u *uop) reset() {
	*u = uop{consumers: u.consumers[:0], stalledGroups: u.stalledGroups[:0]}
}

// cloneUop returns a copy of u with its own empty consumer and
// stalled-group lists and an empty split latch (a split piece).
func (c *Core) cloneUop(u *uop) *uop {
	p := c.newUop()
	consumers, stalled := p.consumers, p.stalledGroups
	*p = *u
	p.consumers, p.stalledGroups = consumers, stalled
	p.pieces, p.npieces = [MaxThreads]*uop{}, 0
	return p
}

// freeUop puts u on the free list. It resets only what buildUop, the
// split stage and rename do not overwrite: the lists, the split latch and
// the rollback's forcedSplit, plus seq and doneAt, which DumpState prints
// before rename and issue set them.
func (c *Core) freeUop(u *uop) {
	if u.state == uopFree {
		panic("core: uop freed twice")
	}
	u.state = uopFree
	u.consumers, u.stalledGroups = u.consumers[:0], u.stalledGroups[:0]
	u.npieces = 0
	u.forcedSplit = false
	u.seq, u.doneAt = 0, 0
	c.freeUops = append(c.freeUops, u)
}

// uopQueue is a FIFO of uops over one backing array the run keeps
// reusing. Dropping the head only advances uops; a push that finds the
// array's tail full slides the queued uops back to its front, and grows
// the array only when they fill more than half of it. Code that filters
// or removes entries in place works on uops directly.
type uopQueue struct {
	buf  []*uop // the backing array
	uops []*uop // the queued uops, oldest first; always a subslice of buf
}

// push appends u at the tail.
func (q *uopQueue) push(u *uop) {
	if len(q.uops) == cap(q.uops) && 2*len(q.uops) <= len(q.buf) {
		q.uops = q.buf[:copy(q.buf, q.uops)]
	}
	q.uops = append(q.uops, u)
	if cap(q.uops) > len(q.buf) { // append grew a new array
		q.buf = q.uops[:cap(q.uops)]
	}
}

// reset empties the queue, keeping its backing array.
func (q *uopQueue) reset() { q.uops = q.buf[:0] }

// drop removes the n oldest uops.
func (q *uopQueue) drop(n int) { q.uops = q.uops[n:] }
