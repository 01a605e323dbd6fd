package core

import (
	"mmt/internal/isa"
	"mmt/internal/obs"
	"mmt/internal/prog"
)

// dataSpace returns the address-space id for thread t's access to addr:
// multi-threaded workloads share one space, multi-execution processes have
// one each, and message-passing ranks are private except for the shared
// mailbox window.
func (c *Core) dataSpace(t int, addr uint64) uint8 {
	switch c.mode {
	case prog.ModeME:
		return uint8(t)
	case prog.ModeMP:
		if prog.InMbox(addr) {
			return 0
		}
		return uint8(t)
	default:
		return 0
	}
}

// memPrivate reports whether an access to addr goes to per-context memory
// (so a merged op must expand to one access per member).
func (c *Core) memPrivate(addr uint64) bool {
	switch c.mode {
	case prog.ModeME:
		return true
	case prog.ModeMP:
		return !prog.InMbox(addr)
	default:
		return false
	}
}

// issueStage selects ready uops oldest-first up to IssueWidth, subject to
// functional-unit and load/store-port availability. It walks the ready
// list, which holds exactly the window's ready uops in seq order (plus
// any squashed since they became ready, which it drops).
func (c *Core) issueStage(now uint64) {
	issued := 0
	free := fuBudget{intALU: c.cfg.IntALUs, fp: c.cfg.FPUs, ls: c.cfg.LSPorts}
	keep := c.ready[:0]
	for _, u := range c.ready {
		switch {
		case u.state != uopReady: // squashed
		case issued < c.cfg.IssueWidth && c.issue(u, &free, now):
			issued++
		default:
			keep = append(keep, u)
		}
	}
	c.ready = keep
}

// fuBudget counts the functional units and load/store ports still free
// in this cycle's issue stage.
type fuBudget struct{ intALU, fp, ls int }

// issue starts u executing if a unit it needs is free, and reports
// whether it did.
func (c *Core) issue(u *uop, free *fuBudget, now uint64) bool {
	switch {
	case u.isLoad:
		if free.ls < 1 {
			return false
		}
		ports := 1
		if u.memPerThread {
			// A merged multi-execution load expands to one access
			// per process; the LSQ performs them "serially"
			// (§4.2.5) across the ports available this cycle.
			ports = u.itid.Count()
			if ports > free.ls {
				ports = free.ls
			}
		}
		free.ls -= ports
		u.doneAt = c.issueLoad(u, ports, now)
	case u.isStore:
		// Stores compute their address at issue; the cache write
		// happens at commit.
		if free.ls < 1 {
			return false
		}
		free.ls--
		u.doneAt = now + 1
	default:
		switch fuOf(u.class) {
		case fuInt:
			if free.intALU < 1 {
				return false
			}
			free.intALU--
		case fuFP:
			if free.fp < 1 {
				return false
			}
			free.fp--
		}
		u.doneAt = now + execLatency(u.class)
	}
	u.state = uopIssued
	c.executing = insertBySeq(c.executing, u)
	c.iqOcc--
	c.stats.IssuedUops++
	c.stats.FUOps++
	return true
}

// insertBySeq inserts u into q, which is in seq order, and returns q
// still in seq order.
func insertBySeq(q []*uop, u *uop) []*uop {
	q = append(q, u)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > u.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = u
	return q
}

// wake marks u ready and queues it for issue.
func (c *Core) wake(u *uop) {
	u.state = uopReady
	c.ready = insertBySeq(c.ready, u)
}

// issueLoad performs the cache access(es) for a load. A merged
// multi-execution load reads the same address in each member's private
// space (paper §4.2.5: "expands the loads ... and performs them
// serially"); accesses beyond the ports granted this cycle start on later
// cycles, and completion is the slowest access.
func (c *Core) issueLoad(u *uop, ports int, now uint64) uint64 {
	if u.memPerThread {
		var done uint64
		i := 0
		for m := u.itid; m != 0; m &= m - 1 {
			t := m.First()
			start := now + uint64(i/ports)
			addr := c.eff(u, t).Addr
			d := c.mem.AccessData(c.dataSpace(t, addr), addr, false, start)
			if d > done {
				done = d
			}
			i++
		}
		return done
	}
	t := u.leader()
	addr := c.eff(u, t).Addr
	return c.mem.AccessData(c.dataSpace(t, addr), addr, false, now)
}

// completeStage retires execution results: uops whose doneAt has arrived
// become done, wake their consumers, release branch-stalled fetch groups,
// and — for value-predicted merged loads — verify the LVIP prediction,
// possibly triggering a rollback. It walks the executing list, which
// holds the issued uops in seq order.
func (c *Core) completeStage(now uint64) {
	// Oldest-first so that an LVIP rollback squashes younger completions
	// before they act; the walk drops them when it reaches them.
	keep := c.executing[:0]
	for _, u := range c.executing {
		if u.state == uopSquashed {
			continue
		}
		if u.doneAt > now {
			keep = append(keep, u)
			continue
		}
		u.state = uopDone

		// Verify merged-load value prediction (paper §4.2.5: "wait for
		// both loads to return, check the values, compare the result
		// to the prediction, and possibly trigger a rollback"). Merged
		// shared-memory loads verify the no-intervening-write
		// assumption the same way, without touching the predictor.
		if u.lvipPredIdent {
			if c.loadValuesDiffer(u) {
				c.lvipRollback(u, now, true)
			} else {
				c.lvip.RecordIdentical(u.pc)
				c.emit(obs.EvLVIPHit, int32(u.itid.First()), u.pc, 0)
			}
		} else if u.sharedVerify && c.loadValuesDiffer(u) {
			c.lvipRollback(u, now, false)
		}
		c.wakeConsumers(u)
		c.releaseStalledGroups(u, now)
	}
	c.executing = keep
}

// wakeConsumers resolves one outstanding operand of each consumer still
// waiting on u, queueing those left with none for issue.
func (c *Core) wakeConsumers(u *uop) {
	for _, cons := range u.consumers {
		if cons.state == uopWaiting {
			cons.ndeps--
			if cons.ndeps == 0 {
				c.wake(cons)
			}
		}
	}
}

// releaseStalledGroups lets the fetch groups waiting on control uop u
// resume after the redirect penalty, once u resolved or will never do so.
func (c *Core) releaseStalledGroups(u *uop, now uint64) {
	for _, g := range u.stalledGroups {
		if g.waitBranch == u {
			g.waitBranch = nil
			if s := now + c.cfg.MispredictPenalty; s > g.stallUntil {
				g.stallUntil = s
			}
		}
	}
	u.stalledGroups = u.stalledGroups[:0]
}

// loadValuesDiffer reports whether a merged ME load's per-process values
// disagree.
func (c *Core) loadValuesDiffer(u *uop) bool {
	first := c.eff(u, u.itid.First()).LoadVal
	for m := u.itid & (u.itid - 1); m != 0; m &= m - 1 {
		if c.eff(u, m.First()).LoadVal != first {
			return true
		}
	}
	return false
}

// lvipRollback handles a value-identical mispredict on a merged load: the
// load is demoted to split (per-thread destinations), every younger uop of
// the affected threads is squashed, their streams rewind, and fetch
// restarts after a redirect penalty. train selects whether the LVIP
// records the event (private-memory loads) or not (shared-memory races).
func (c *Core) lvipRollback(u *uop, now uint64, train bool) {
	c.stats.LVIPRollbacks++
	if train {
		c.lvip.RecordMispredict(u.pc)
	}
	affected := u.itid
	if c.rec != nil {
		c.rec.Event(obs.Event{TS: c.now, Kind: obs.EvRollback, Track: int32(affected.First()),
			PC: u.pc, Arg: uint64(affected.Count()), Cost: c.cfg.MispredictPenalty})
	}
	if until := now + c.cfg.MispredictPenalty; until > c.rollbackUntil {
		c.rollbackUntil = until
	}

	squashedBefore := c.stats.SquashedUops
	c.squashYounger(affected, u.seq, now)
	if n := c.stats.SquashedUops - squashedBefore; n > 0 {
		c.emit(obs.EvSquash, int32(affected.First()), u.pc, n)
	}

	// The load itself survives but its destination becomes per-thread
	// (distinct mappings), as if the split stage had split it.
	u.forcedSplit = true
	u.lvipPredIdent = false
	u.sharedVerify = false
	if dest, ok := u.inst.Dest(); ok {
		for m := affected; m != 0; m &= m - 1 {
			t := m.First()
			c.rst.WriteSplit(t, dest)
			u.destVer[t] = c.rst.version[t][dest]
		}
	}
}

// squashYounger rolls back every uop younger than afterSeq whose ITID
// intersects affected: their destination mappings are undone (reverse
// order), streams rewind to the squash point, and the affected threads
// restart fetch in fresh singleton groups after the redirect penalty.
func (c *Core) squashYounger(affected ITID, afterSeq uint64, now uint64) {
	// Reverse order: undo rename effects youngest-first.
	for i := len(c.window.uops) - 1; i >= 0; i-- {
		w := c.window.uops[i]
		if w.seq <= afterSeq {
			break
		}
		if w.state == uopSquashed || w.itid&affected == 0 {
			continue
		}
		c.squashFrom(w, affected, now)
	}
	// Uops still in the fetch queue have no rename state to undo.
	// Everything in the fetch queue is younger than any renamed uop.
	// A split latch narrows a queued uop's itid to its first piece, so
	// the test is on fetchITID, which still covers every piece.
	keep := c.fetchQ.uops[:0]
	for _, w := range c.fetchQ.uops {
		if w.fetchITID&affected != 0 {
			c.dropSplitLatch(w)
			w.itid = w.fetchITID &^ affected
			w.fetchITID = w.itid
			if w.itid == 0 {
				c.stats.SquashedUops++
				c.releaseStalledGroups(w, now)
				c.freeUop(w) // never renamed: nothing else refers to it
				continue
			}
		}
		keep = append(keep, w)
	}
	c.fetchQ.uops = keep

	// Rebuild rename bookkeeping for the affected threads.
	c.rebuildWriterState(affected)

	// Rewind streams and restart fetch.
	for m := affected; m != 0; m &= m - 1 {
		t := m.First()
		c.streams[t].rewindTo(c.rewindPoint(t, afterSeq))
	}
	c.regroupAfterSquash(affected, now)
}

// dropSplitLatch invalidates the split latch of a queued uop u whose
// threads changed and recycles the pieces split off from u. A fetch group
// waiting on a piece goes back to waiting on u, so the next split hands
// it to the piece that then executes for its threads.
func (c *Core) dropSplitLatch(u *uop) {
	for i := 1; i < u.npieces; i++ {
		p := u.pieces[i]
		for _, g := range p.stalledGroups {
			if g.waitBranch == p {
				g.waitBranch = u
				u.stalledGroups = append(u.stalledGroups, g)
			}
		}
		c.freeUop(p)
	}
	u.npieces = 0
}

// squashFrom removes the affected threads from one renamed uop, undoing
// their destination mappings; the uop dies entirely when no threads
// remain.
func (c *Core) squashFrom(w *uop, affected ITID, now uint64) {
	if dest, ok := w.inst.Dest(); ok {
		for m := w.itid; m != 0; m &= m - 1 {
			t := m.First()
			if !affected.Has(t) || !w.destUndo[t].valid {
				continue
			}
			c.rst.version[t][dest] = w.destUndo[t].oldVer
			c.rst.byMerge[t][dest] = w.destUndo[t].oldByMerge
			w.destUndo[t].valid = false
		}
	}
	removed := w.itid & affected
	w.itid &^= affected
	for m := removed; m != 0; m &= m - 1 {
		c.removeFromROBQ(m.First(), w)
	}
	if w.itid == 0 {
		if w.state == uopWaiting || w.state == uopReady {
			c.iqOcc--
		}
		w.state = uopSquashed
		c.robOcc--
		if w.isMem() {
			c.lsqOcc -= w.lsqSlots
		}
		if w.isStore {
			c.memQStale = true
		}
		c.stats.SquashedUops++
		// Release any surviving consumers waiting on this producer
		// (possible when a merged consumer kept threads outside the
		// squash set).
		c.wakeConsumers(w)
		// Release fetch groups stalled on this (now defunct) control
		// uop: the branch will never resolve, so the group must not
		// wait on it forever.
		c.releaseStalledGroups(w, now)
		return
	}
	// Partial squash: the uop survives (and keeps its single LSQ entry)
	// for the remaining threads.
}

func (c *Core) removeFromROBQ(t int, w *uop) {
	q := c.robQ[t].uops
	for i := len(q) - 1; i >= 0; i-- {
		if q[i] == w {
			c.robQ[t].uops = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// rewindPoint returns the dynamic index thread t must refetch from: the
// record after the youngest surviving (non-squashed) uop ≤ afterSeq —
// which, because squashing removed everything younger, is simply the
// record after the thread's youngest remaining ROB entry.
func (c *Core) rewindPoint(t int, afterSeq uint64) uint64 {
	q := c.robQ[t].uops
	if len(q) == 0 {
		return c.streams[t].base
	}
	last := q[len(q)-1]
	return last.dynIdx[t] + 1
}

// rebuildWriterState recomputes lastWriter and activeWriters for the
// affected threads by walking the surviving window in order. Committed
// uops can still sit in the window behind an older uncommitted head; they
// are no longer writers in flight (commit already retired their mapping
// and decremented activeWriters), so the rebuild skips them.
func (c *Core) rebuildWriterState(affected ITID) {
	for m := affected; m != 0; m &= m - 1 {
		t := m.First()
		c.lastWriter[t] = [isa.NumRegs]*uop{}
		c.activeWriters[t] = [isa.NumRegs]int{}
	}
	for _, w := range c.window.uops {
		if w.state == uopSquashed || w.state == uopCommitted {
			continue
		}
		dest, ok := w.inst.Dest()
		if !ok {
			continue
		}
		for m := w.itid & affected; m != 0; m &= m - 1 {
			t := m.First()
			c.lastWriter[t][dest] = w
			c.activeWriters[t][dest]++
		}
	}
}

// regroupAfterSquash pulls the affected threads out of their fetch groups
// into fresh singleton groups that resume after the redirect penalty.
func (c *Core) regroupAfterSquash(affected ITID, now uint64) {
	for _, g := range c.groups {
		if g.dead || g.members&affected == 0 {
			continue
		}
		c.dissolveLinks(g)
		g.members &^= affected
		if g.members == 0 {
			g.dead = true
		}
	}
	for m := affected; m != 0; m &= m - 1 {
		t := m.First()
		c.fhb[t].Clear()
		c.newGroup(ITIDOf(t), now+c.cfg.MispredictPenalty, 0)
	}
}
