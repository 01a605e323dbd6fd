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
// functional-unit and load/store-port availability.
func (c *Core) issueStage(now uint64) {
	issued := 0
	intFree := c.cfg.IntALUs
	fpFree := c.cfg.FPUs
	lsFree := c.cfg.LSPorts
	for _, u := range c.window.uops {
		if issued >= c.cfg.IssueWidth {
			break
		}
		if u.state != uopReady {
			continue
		}
		switch {
		case u.isLoad:
			if lsFree < 1 {
				continue
			}
			ports := 1
			if u.memPerThread {
				// A merged multi-execution load expands to one access
				// per process; the LSQ performs them "serially"
				// (§4.2.5) across the ports available this cycle.
				ports = u.itid.Count()
				if ports > lsFree {
					ports = lsFree
				}
			}
			lsFree -= ports
			u.doneAt = c.issueLoad(u, ports, now)
		case u.isStore:
			// Stores compute their address at issue; the cache write
			// happens at commit.
			if lsFree < 1 {
				continue
			}
			lsFree--
			u.doneAt = now + 1
		default:
			switch fuOf(u.class) {
			case fuInt:
				if intFree < 1 {
					continue
				}
				intFree--
			case fuFP:
				if fpFree < 1 {
					continue
				}
				fpFree--
			}
			u.doneAt = now + execLatency(u.class)
		}
		u.state = uopIssued
		c.iqOcc--
		issued++
		c.stats.IssuedUops++
		c.stats.FUOps++
	}
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
			d := c.mem.AccessData(c.dataSpace(t, u.effs[t].Addr), u.effs[t].Addr, false, start)
			if d > done {
				done = d
			}
			i++
		}
		return done
	}
	t := u.leader()
	return c.mem.AccessData(c.dataSpace(t, u.effs[t].Addr), u.effs[t].Addr, false, now)
}

// completeStage retires execution results: uops whose doneAt has arrived
// become done, wake their consumers, release branch-stalled fetch groups,
// and — for value-predicted merged loads — verify the LVIP prediction,
// possibly triggering a rollback.
func (c *Core) completeStage(now uint64) {
	// Oldest-first so that an LVIP rollback squashes younger completions
	// before they act.
	for _, u := range c.window.uops {
		if u.state != uopIssued || u.doneAt > now {
			continue
		}
		if u.state == uopSquashed {
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
				if c.probe != nil {
					c.probe.LVIPHit(u.pc)
				}
			}
		} else if u.sharedVerify && c.loadValuesDiffer(u) {
			c.lvipRollback(u, now, false)
		}
		if u.state == uopSquashed {
			continue
		}

		for _, cons := range u.consumers {
			if cons.state == uopWaiting {
				cons.ndeps--
				if cons.ndeps == 0 {
					cons.state = uopReady
				}
			}
		}
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
}

// loadValuesDiffer reports whether a merged ME load's per-process values
// disagree.
func (c *Core) loadValuesDiffer(u *uop) bool {
	first := u.effs[u.itid.First()].LoadVal
	for m := u.itid & (u.itid - 1); m != 0; m &= m - 1 {
		if u.effs[m.First()].LoadVal != first {
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
	c.emit(obs.EvRollback, int32(affected.First()), u.pc, uint64(affected.Count()))

	squashedBefore := c.stats.SquashedUops
	c.squashYounger(affected, u.seq, now)
	if n := c.stats.SquashedUops - squashedBefore; n > 0 {
		c.emit(obs.EvSquash, int32(affected.First()), u.pc, n)
	}
	if c.probe != nil {
		c.probe.LVIPMispredict(u.pc, c.cfg.MispredictPenalty, c.stats.SquashedUops-squashedBefore)
		if until := now + c.cfg.MispredictPenalty; until > c.rollbackUntil {
			c.rollbackUntil = until
		}
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
	keep := c.fetchQ.uops[:0]
	for _, w := range c.fetchQ.uops {
		if w.itid&affected != 0 {
			w.itid &^= affected
			w.fetchITID = w.itid
			c.dropSplitLatch(w)
			if w.itid == 0 {
				c.stats.SquashedUops++
				for _, g := range w.stalledGroups {
					if g.waitBranch == w {
						g.waitBranch = nil
						if s := now + c.cfg.MispredictPenalty; s > g.stallUntil {
							g.stallUntil = s
						}
					}
				}
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
// threads changed, recycling the pieces split off from u. A piece that a
// fetch group still waits on is left to the garbage collector instead,
// because the group keeps pointing at it.
func (c *Core) dropSplitLatch(u *uop) {
	for i := 1; i < u.npieces; i++ {
		p := u.pieces[i]
		waitedOn := false
		for _, g := range p.stalledGroups {
			waitedOn = waitedOn || g.waitBranch == p
		}
		if !waitedOn {
			c.freeUop(p)
		}
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
		c.stats.SquashedUops++
		// Release any surviving consumers waiting on this producer
		// (possible when a merged consumer kept threads outside the
		// squash set).
		for _, cons := range w.consumers {
			if cons.state == uopWaiting {
				cons.ndeps--
				if cons.ndeps == 0 {
					cons.state = uopReady
				}
			}
		}
		// Release fetch groups stalled on this (now defunct) control
		// uop: the branch will never resolve, so the group must not
		// wait on it forever.
		for _, g := range w.stalledGroups {
			if g.waitBranch == w {
				g.waitBranch = nil
				if s := now + c.cfg.MispredictPenalty; s > g.stallUntil {
					g.stallUntil = s
				}
			}
		}
		w.stalledGroups = w.stalledGroups[:0]
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
