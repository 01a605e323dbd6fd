package core

import "mmt/internal/obs"

// commitStage retires completed uops in per-thread program order, up to
// CommitWidth per cycle. A merged uop consumes a single commit slot and
// must be at the head of every member thread's ROB queue; it retires for
// all of them at once — the commit-bandwidth side of the MMT savings.
func (c *Core) commitStage(now uint64) {
	slots := c.cfg.CommitWidth
	c.regMergeBudget = c.cfg.RegMergePorts
	for progress := true; progress && slots > 0; {
		progress = false
		for t := 0; t < c.cfg.Threads && slots > 0; t++ {
			q := c.robQ[t].uops
			if len(q) == 0 {
				continue
			}
			u := q[0]
			if u.state == uopSquashed {
				c.robQ[t].drop(1)
				progress = true
				continue
			}
			if u.state != uopDone || !c.atAllHeads(u) {
				continue
			}
			c.commit(u, now)
			slots--
			progress = true
		}
	}
	c.compactWindow()
}

func (c *Core) atAllHeads(u *uop) bool {
	for m := u.itid; m != 0; m &= m - 1 {
		q := c.robQ[m.First()].uops
		if len(q) == 0 || q[0] != u {
			return false
		}
	}
	return true
}

// commit retires one uop for all its threads.
func (c *Core) commit(u *uop, now uint64) {
	for m := u.itid; m != 0; m &= m - 1 {
		c.robQ[m.First()].drop(1)
	}
	u.state = uopCommitted
	c.robOcc--
	if u.isMem() {
		c.lsqOcc -= u.lsqSlots
	}
	c.stats.CommittedUops++

	dest, hasDest := u.inst.Dest()
	// Invariant: an execute-identical instruction produced one result for
	// all its threads. Mapping identity plus LVIP verification guarantee
	// it; a violation is a model bug, not a workload property.
	if hasDest && u.execIdentical() {
		lead := c.eff(u, u.leader()).DestVal
		for m := u.itid; m != 0; m &= m - 1 {
			if c.eff(u, m.First()).DestVal != lead {
				panic("core: execute-identical uop committed divergent values")
			}
		}
	}
	for m := u.itid; m != 0; m &= m - 1 {
		t := m.First()
		c.stats.Committed[t]++
		if hasDest {
			c.committedReg[t][dest] = c.eff(u, t).DestVal
			c.activeWriters[t][dest]--
			if c.lastWriter[t][dest] == u {
				c.lastWriter[t][dest] = nil
			}
		}
	}
	c.retireTrace(u)

	// Stores write the cache at commit (paper Table 2: ME stores are
	// performed once per process).
	if u.isStore {
		c.memQStale = true
		if u.memPerThread {
			for m := u.itid; m != 0; m &= m - 1 {
				c.storeData(u, m.First(), now)
			}
		} else {
			c.storeData(u, u.leader(), now)
		}
	}

	// Commit classification: Fig. 5b counts per-thread instructions,
	// EvCommit carries the per-uop class.
	n := uint64(u.itid.Count())
	class := CommitSolo
	switch {
	case u.execIdentical():
		class = CommitMerged
		if u.regMergeAssisted {
			c.stats.ExecIdentRegMerge += n
		} else {
			c.stats.ExecIdentical += n
		}
	case u.fetchIdenticalOnly():
		class = CommitSplit
		c.stats.FetchIdenticalOnly += n
	default:
		c.stats.NotIdentical += n
	}
	c.emit(obs.EvCommit, int32(u.itid.First()), u.pc, uint64(class))

	if hasDest && c.cfg.RegMerge && u.mode != FetchMerge {
		c.tryRegisterMerge(u, dest)
	}

	// The records go last: everything above reads u's effects.
	for m := u.itid; m != 0; m &= m - 1 {
		t := m.First()
		c.streams[t].release(u.dynIdx[t] + 1)
	}
}

// storeData performs member thread t's cache write for store u.
func (c *Core) storeData(u *uop, t int, now uint64) {
	addr := c.eff(u, t).Addr
	c.mem.AccessData(c.dataSpace(t, addr), addr, true, now)
}

// tryRegisterMerge implements §4.2.7: when an instruction fetched in
// DETECT or CATCHUP mode commits a register whose mapping is still valid,
// compare its value against the same architected register of the other
// threads (those with no in-flight writer) and, on a match, set the RST
// bits back to shared.
func (c *Core) tryRegisterMerge(u *uop, dest uint8) {
	for m := u.itid; m != 0; m &= m - 1 {
		t := m.First()
		// Mapping still valid: no younger in-flight instruction has
		// renamed the register in this thread.
		if c.rst.version[t][dest] != u.destVer[t] || c.activeWriters[t][dest] != 0 {
			continue
		}
		for o := 0; o < c.cfg.Threads; o++ {
			if o == t || u.itid.Has(o) {
				continue
			}
			if c.activeWriters[o][dest] != 0 || c.rst.Shared(t, o, dest) {
				continue
			}
			if c.regMergeBudget <= 0 {
				return // no register-file read ports left this cycle
			}
			c.regMergeBudget--
			c.stats.RegMergeCompares++
			if c.committedReg[o][dest] == c.committedReg[t][dest] {
				c.rst.MergeInto(t, o, dest)
				c.stats.RegMergeHits++
			}
		}
	}
}

// compactWindow filters the store queue once a store in it has committed
// or been squashed, and drops committed and squashed uops from the head of
// the window, recycling them (see uop.go).
func (c *Core) compactWindow() {
	if c.memQStale {
		keep := c.memQ[:0]
		for _, m := range c.memQ {
			if m.state != uopCommitted && m.state != uopSquashed {
				keep = append(keep, m)
			}
		}
		c.memQ = keep
		c.memQStale = false
	}
	i := 0
	for _, u := range c.window.uops {
		if u.state != uopCommitted && u.state != uopSquashed {
			break
		}
		c.freeUop(u)
		i++
	}
	c.window.drop(i)
}

// threadDone reports whether thread t has drained: its stream is exhausted
// (halted or instruction-capped) and nothing remains in flight.
func (c *Core) threadDone(t int) bool {
	if _, ok := c.streams[t].nextPC(); ok {
		return false
	}
	if len(c.robQ[t].uops) > 0 {
		return false
	}
	for _, u := range c.fetchQ.uops {
		if u.state != uopSquashed && u.itid.Has(t) {
			return false
		}
	}
	return true
}

// allDone reports whether every thread has drained.
func (c *Core) allDone() bool {
	for t := 0; t < c.cfg.Threads; t++ {
		if !c.threadDone(t) {
			return false
		}
	}
	return true
}
