package core

import (
	"fmt"

	"mmt/internal/isa"
	"mmt/internal/obs"
)

// renameStage moves uops from the fetch queue through the split stage
// (paper §4.2.2) into the ROB/IQ/LSQ, consuming rename bandwidth. A
// fetch-identical uop that splits consumes one rename slot per resulting
// uop, exactly as the paper's extra pipeline stage produces "the minimal
// set of 1–4 instructions".
func (c *Core) renameStage(now uint64) {
	slots := c.cfg.RenameWidth
	for len(c.fetchQ.uops) > 0 && slots > 0 {
		u := c.fetchQ.uops[0]
		if u.state == uopSquashed { // squashed while still in the queue
			c.fetchQ.drop(1)
			continue
		}
		// The split latch: evaluate the split stage once per uop even
		// when rename retries across cycles.
		if u.npieces == 0 {
			c.splitUop(u)
		}
		pieces := u.pieces[:u.npieces]
		if len(pieces) > slots {
			if slots < c.cfg.RenameWidth {
				break // wait for a fresh cycle's full bandwidth
			}
			// A split wider than the rename stage itself (e.g. a 4-way
			// split on a 2-wide machine) occupies the whole cycle and
			// dispatches atomically.
		}
		if !c.windowSpace(pieces) {
			break
		}
		c.fetchQ.drop(1)
		for _, p := range pieces {
			c.rename(p, now)
		}
		slots -= len(pieces)
		if slots < 0 {
			slots = 0
		}
	}
}

// windowSpace checks ROB/IQ/LSQ capacity for all pieces at once (a split
// uop dispatches atomically).
func (c *Core) windowSpace(pieces []*uop) bool {
	lsq := 0
	for _, p := range pieces {
		if p.isMem() {
			lsq += p.lsqSlots
		}
	}
	if c.robOcc+len(pieces) > c.cfg.ROBSize {
		c.stats.ROBFullStop++
		c.noteStall(obs.StallROB)
		return false
	}
	if c.iqOcc+len(pieces) > c.cfg.IQSize {
		c.stats.IQFullStop++
		c.noteStall(obs.StallIQ)
		return false
	}
	if c.lsqOcc+lsq > c.cfg.LSQSize {
		c.stats.LSQFullStop++
		c.noteStall(obs.StallLSQ)
		return false
	}
	return true
}

// splitUop implements the decision logic of paper Table 2: given a
// fetch-identical uop, produce the minimal set of uops with disjoint
// ITIDs, latched in u.pieces. With shared execution disabled (MMT-F),
// every fetch-identical uop splits into singletons at decode.
func (c *Core) splitUop(u *uop) {
	if u.fetchITID.Count() == 1 {
		c.soloPiece(u, u.itid)
		u.pieces[0], u.npieces = u, 1
		return
	}
	if !c.cfg.SharedExec {
		// MMT-F: "always splitting into different instructions in the
		// decode stage" (§5).
		c.splitIntoSingletons(u)
		return
	}
	if u.inst.Op == isa.OpTid {
		// Thread-identity reads are inherently per-thread: identical
		// mappings do not imply identical results.
		c.splitIntoSingletons(u)
		return
	}

	c.stats.SplitOps++
	srcs, n := u.inst.Sources()
	classes, rmAssist := c.rst.Partition(u.fetchITID, srcs[:n])
	if c.cfg.ValidateSplits {
		c.validateSplit(u, srcs[:n], classes)
	}

	// Loads from private (per-process) memory: identical mappings mean
	// identical addresses in *different* address spaces; consult the
	// LVIP (Table 2: Load/ME/X-id → check LVIP). Mailbox-window loads in
	// MP mode behave like MT shared loads.
	if u.isLoad {
		expanded, expandedRM := c.scratch.classes[:0], c.scratch.regMerge[:0]
		for i, cl := range classes {
			if cl.Count() >= 2 && c.memPrivate(c.eff(u, cl.First()).Addr) {
				split := false
				switch c.cfg.LVIP {
				case LVIPOff:
					split = true
				case LVIPOracle:
					// The upper bound: merge exactly the classes whose
					// values actually match; never roll back.
					first := c.eff(u, cl.First()).LoadVal
					for m := cl; m != 0; m &= m - 1 {
						if c.eff(u, m.First()).LoadVal != first {
							split = true
							break
						}
					}
				default: // LVIPPredict, the paper's design
					c.stats.LVIPLookups++
					split = !c.lvip.PredictIdentical(u.pc)
				}
				if split {
					for m := cl; m != 0; m &= m - 1 {
						expanded = append(expanded, ITIDOf(m.First()))
						expandedRM = append(expandedRM, false)
					}
					continue
				}
			}
			expanded = append(expanded, cl)
			expandedRM = append(expandedRM, rmAssist[i])
		}
		classes, rmAssist = expanded, expandedRM
	}

	for i, cl := range classes {
		p := u
		if i > 0 {
			p = c.cloneUop(u)
		}
		p.itid = cl
		p.regMergeAssisted = cl.Count() >= 2 && rmAssist[i]
		private := u.isMem() && c.memPrivate(c.eff(u, cl.First()).Addr)
		// Verification (and rollback exposure) only exists under the
		// real predictor; the oracle mode merges exactly-correct classes.
		p.lvipPredIdent = u.isLoad && private && cl.Count() >= 2 && c.cfg.LVIP == LVIPPredict
		p.memPerThread = private && cl.Count() >= 2
		// Shared-memory merged loads perform one access; the assumption
		// that the value is identical for all threads ("if executed
		// without an intervening write", §3.1) is verified at completion
		// and rolled back on the rare race.
		p.sharedVerify = u.isLoad && !private && cl.Count() >= 2
		p.lsqSlots = c.lsqSlotsFor(p, cl)
		u.pieces[i] = p
	}
	u.npieces = len(classes)
	distributeStalledGroups(u)
}

// distributeStalledGroups reattaches fetch groups waiting on a split
// control uop u to the piece that executes for the group's threads, so
// each group resumes when *its* branch instance resolves (and a rollback
// squashing one piece cannot strand an unrelated group). An entry whose
// group no longer waits on u is dropped: that group died, and may have
// been recycled.
func distributeStalledGroups(u *uop) {
	pieces := u.pieces[:u.npieces]
	keep := u.stalledGroups[:0]
	for _, g := range u.stalledGroups {
		if g.waitBranch != u {
			continue
		}
		p := u
		for _, q := range pieces {
			if q.itid&g.members != 0 {
				p = q
				break
			}
		}
		g.waitBranch = p
		if p == u {
			keep = append(keep, g)
		} else {
			p.stalledGroups = append(p.stalledGroups, g)
		}
	}
	u.stalledGroups = keep
}

// splitIntoSingletons breaks a fetch-identical uop into one uop per
// member thread.
func (c *Core) splitIntoSingletons(u *uop) {
	i := 0
	for m := u.fetchITID; m != 0; m &= m - 1 {
		p := u
		if i > 0 {
			p = c.cloneUop(u)
		}
		c.soloPiece(p, ITIDOf(m.First()))
		u.pieces[i] = p
		i++
	}
	u.npieces = i
	distributeStalledGroups(u)
}

// soloPiece makes p a piece that executes for the one thread in itid.
// Like splitUop's class loop, it writes every field the split stage
// decides, so a re-split after a dropped latch leaves none stale.
func (c *Core) soloPiece(p *uop, itid ITID) {
	p.itid = itid
	p.regMergeAssisted, p.lvipPredIdent, p.sharedVerify, p.memPerThread = false, false, false, false
	p.lsqSlots = c.lsqSlotsFor(p, itid)
}

// lsqSlotsFor returns LSQ occupancy. A merged multi-execution memory op
// occupies a single queue entry whose accesses are expanded and performed
// serially at access time (paper §4.2.5 — Table 3 adds no LSQ storage, so
// the expansion is a sequencer, not extra entries).
func (c *Core) lsqSlotsFor(u *uop, itid ITID) int {
	if !u.isMem() {
		return 0
	}
	return 1
}

// rename allocates the uop's dependences and destination mapping and
// dispatches it into the window.
func (c *Core) rename(u *uop, now uint64) {
	c.seq++
	u.seq = c.seq // rename order = age order; the window is seq-sorted
	c.stats.RenamedUops++

	// Source dependences: the union of last writers over member threads.
	// For a merged uop the mappings are identical, so the union is a
	// single producer; the union form stays correct across partial
	// squashes.
	srcs, n := u.inst.Sources()
	u.ndeps = 0
	for i := 0; i < n; i++ {
		s := srcs[i]
		if s == isa.RegZero {
			continue
		}
		c.stats.RegReads++
		for m := u.itid; m != 0; m &= m - 1 {
			dependOn(u, c.lastWriter[m.First()][s])
		}
	}

	// Memory ordering: a load depends on the youngest older store to the
	// same address in each of its threads (perfect store-to-load
	// disambiguation; addresses come from the oracle).
	if u.isLoad {
		for m := u.itid; m != 0; m &= m - 1 {
			t := m.First()
			dependOn(u, c.youngestStore(t, c.eff(u, t).Addr, u.seq))
		}
	}

	// Destination mapping (RST update, §4.2.3/4.2.4).
	if dest, ok := u.inst.Dest(); ok {
		c.stats.RegWrites++
		for m := u.itid; m != 0; m &= m - 1 {
			t := m.First()
			u.destUndo[t] = destUndo{
				oldVer:     c.rst.version[t][dest],
				oldByMerge: c.rst.byMerge[t][dest],
				valid:      true,
			}
		}
		if c.cfg.SharedExec {
			if u.itid.Count() >= 2 {
				c.rst.WriteMerged(u.itid, dest)
			} else {
				c.rst.WriteSplit(u.itid.First(), dest)
			}
			c.stats.RSTUpdates++
		} else {
			for m := u.itid; m != 0; m &= m - 1 {
				c.rst.WriteSplit(m.First(), dest)
			}
		}
		for m := u.itid; m != 0; m &= m - 1 {
			t := m.First()
			u.destVer[t] = c.rst.version[t][dest]
			c.activeWriters[t][dest]++
			c.lastWriter[t][dest] = u
		}
	}

	// Dispatch.
	u.state = uopWaiting
	if u.ndeps == 0 {
		c.wake(u)
	}
	c.window.push(u)
	c.robOcc++
	c.iqOcc++
	if u.isMem() {
		c.lsqOcc += u.lsqSlots
	}
	if u.isStore {
		c.memQ = append(c.memQ, u)
	}
	for m := u.itid; m != 0; m &= m - 1 {
		c.robQ[m.First()].push(u)
	}
}

// dependOn makes u wait for producer w while w is still in flight. A
// producer serving several of u's sources or threads is linked once: if
// u already depends on w, u is the last consumer w lists, because nothing
// else renames while u does.
func dependOn(u, w *uop) {
	if w == nil || w.state >= uopDone {
		return
	}
	if n := len(w.consumers); n > 0 && w.consumers[n-1] == u {
		return
	}
	u.ndeps++
	w.consumers = append(w.consumers, u)
}

// youngestStore finds the youngest store older than seq writing addr in
// thread t.
func (c *Core) youngestStore(t int, addr uint64, seq uint64) *uop {
	for i := len(c.memQ) - 1; i >= 0; i-- {
		s := c.memQ[i]
		if s.seq >= seq || s.state == uopSquashed || !s.itid.Has(t) {
			continue
		}
		if c.eff(s, t).Addr == addr {
			return s
		}
	}
	return nil
}

// validateSplit cross-checks one split decision against the structural
// §4.2.2 network (ValidateSplits debug mode).
func (c *Core) validateSplit(u *uop, srcs []uint8, classes []ITID) {
	if c.splitNet == nil {
		c.splitNet = NewSplitNetwork(c.cfg.Threads)
	}
	pair := func(i, j int) bool {
		for _, s := range srcs {
			if s != isa.RegZero && !c.rst.Shared(i, j, s) {
				return false
			}
		}
		return true
	}
	hw := c.splitNet.Evaluate(pair, u.fetchITID)
	if len(hw) != len(classes) {
		panic(fmt.Sprintf("core: split network disagrees at pc %#x: hardware %v vs partition %v", u.pc, hw, classes))
	}
	want := make(map[ITID]bool, len(classes))
	for _, cl := range classes {
		want[cl] = true
	}
	for _, e := range hw {
		if !want[e] {
			panic(fmt.Sprintf("core: split network disagrees at pc %#x: hardware %v vs partition %v", u.pc, hw, classes))
		}
	}
}
