package core

import (
	"fmt"

	"mmt/internal/isa"
	"mmt/internal/obs"
)

// group is a set of threads fetching the same instruction stream (one
// fetch PC). With shared fetch disabled every thread is a permanent
// singleton group. Groups split at divergent control instructions and
// merge back through DETECT/CATCHUP (or directly, when their fetch PCs
// coincide).
type group struct {
	members ITID
	// stallUntil delays fetch (I-cache miss fill, mispredict redirect,
	// rollback refetch penalty).
	stallUntil uint64
	// waitBranch is a mispredicted control uop this group's fetch waits
	// on; cleared at resolution.
	waitBranch *uop
	// ahead is the group this one is catching up to (behind role).
	ahead *group
	// behindCnt counts groups catching up to this one (ahead role).
	behindCnt int
	// takenSinceDiverge counts taken branches fetched since this group
	// was created by a divergence (remerge-distance statistic).
	takenSinceDiverge uint64
	// divergePC is the control-instruction PC whose divergence created
	// this group (0 for initial groups and post-squash regroups); its
	// EvCatchupCycle and EvRemerge events name that site, so attribution
	// charges the group's catchup cycles and eventual remerge to it.
	divergePC uint64
	// catchupInsts counts instructions fetched while catching up; a
	// bound aborts catchups that fail to converge (liveness valve).
	catchupInsts uint64
	// Software-hint synchronization (SyncHints): the group is parked at
	// a remerge hint until parkDeadline; after a timeout it refuses to
	// re-park until parkCooldown.
	parked       bool
	parkDeadline uint64
	parkCooldown uint64
	dead         bool
}

// catchupLimit bounds instructions a behind group may fetch in one CATCHUP
// episode before the attempt is abandoned as a false positive.
const catchupLimit = 2048

// groupMode classifies the fetch mode of instructions this group fetches
// (paper Fig. 3a / Fig. 5d accounting). The boosted-priority behind thread
// is in CATCHUP; the ahead thread keeps fetching in its own mode.
func (g *group) fetchMode() FetchMode {
	if g.ahead != nil {
		return FetchCatchup
	}
	if g.members.Count() >= 2 {
		return FetchMerge
	}
	return FetchDetect
}

// canFetch reports whether the group can fetch at cycle now.
func (c *Core) canFetch(g *group, now uint64) bool {
	if g.dead || g.stallUntil > now || g.waitBranch != nil {
		return false
	}
	if g.parked {
		if now < g.parkDeadline {
			return false
		}
		// Timed out waiting at the hint: give up, resume, and refuse
		// to re-park for a cooldown period.
		g.parked = false
		g.parkCooldown = now + c.cfg.HintParkTimeout
	}
	_, ok := c.streams[g.members.First()].nextPC()
	return ok
}

// pruneExhausted removes members whose streams are exhausted (halted or
// instruction-capped, not errored) from a multi-member group, returning
// true if any were removed. Under a per-thread MaxInsts cap, members of a
// merged group can run out at different times — the divergent paths they
// took before merging left their cursors at different counts — and an
// exhausted member must not pin the whole group: with it still aboard,
// either fetch stalls forever on an exhausted leader (the remaining
// members never drain, so the run never ends) or buildUop trips its
// group invariant on an exhausted non-leader.
func (c *Core) pruneExhausted(g *group) bool {
	if g.members.Count() < 2 {
		return false
	}
	var live, done ITID
	for m := g.members; m != 0; m &= m - 1 {
		t := m.First()
		if c.streams[t].exhausted() {
			done = done.With(t)
		} else {
			live = live.With(t)
		}
	}
	if done == 0 || live == 0 {
		return false
	}
	// The exhausted threads need no group: they will never fetch again,
	// and their in-flight uops commit per-thread regardless.
	g.members = live
	return true
}

// cancelCatchup drops g's behind-role link.
func (c *Core) cancelCatchup(g *group) {
	if g.ahead != nil {
		g.ahead.behindCnt--
		g.ahead = nil
	}
}

// dissolveLinks removes every catchup association involving g.
func (c *Core) dissolveLinks(g *group) {
	c.cancelCatchup(g)
	if g.behindCnt > 0 {
		for _, o := range c.groups {
			if o.ahead == g {
				o.ahead = nil
			}
		}
		g.behindCnt = 0
	}
}

// liveGroups compacts the group list, moving dead groups to deadGroups.
func (c *Core) liveGroups() []*group {
	out := c.groups[:0]
	for _, g := range c.groups {
		if g.dead {
			c.deadGroups = append(c.deadGroups, g)
		} else {
			out = append(out, g)
		}
	}
	c.groups = out
	return out
}

// newGroup adds a fetch group for members, reusing a recycled group when
// there is one. A recycled group died at least one fetch stage ago: its
// catchup links were dissolved when it died, and a uop that still lists
// it as stalled only acts on groups whose waitBranch is that uop.
func (c *Core) newGroup(members ITID, stallUntil, divergePC uint64) *group {
	var g *group
	if n := len(c.freeGroups); n > 0 {
		g = c.freeGroups[n-1]
		c.freeGroups = c.freeGroups[:n-1]
	} else {
		g = new(group)
	}
	*g = group{members: members, stallUntil: stallUntil, divergePC: divergePC}
	c.groups = append(c.groups, g)
	return g
}

// attemptMerges unifies groups whose fetch PCs coincide. This covers both
// the CATCHUP completion case (the behind group reached the ahead group's
// PC) and the degenerate case where divergent paths re-join exactly in
// step.
func (c *Core) attemptMerges(now uint64) {
	if !c.cfg.SharedFetch {
		return
	}
	for changed := true; changed; {
		changed = false
		gs := c.liveGroups()
		for i := 0; i < len(gs) && !changed; i++ {
			for j := i + 1; j < len(gs); j++ {
				a, b := gs[i], gs[j]
				if a.stallUntil > now || b.stallUntil > now || a.waitBranch != nil || b.waitBranch != nil {
					continue
				}
				pa, oka := c.streams[a.members.First()].nextPC()
				pb, okb := c.streams[b.members.First()].nextPC()
				if !oka || !okb || pa != pb {
					continue
				}
				c.mergeGroups(a, b)
				changed = true
				break
			}
		}
	}
}

// mergeGroups unifies b into a.
func (c *Core) mergeGroups(a, b *group) {
	c.stats.Remerges++
	dist := a.takenSinceDiverge
	if b.takenSinceDiverge > dist {
		dist = b.takenSinceDiverge
	}
	c.stats.RecordRemergeDistance(dist)
	if c.rec != nil {
		// The groups merge because their next fetch PCs are equal; that
		// common PC is the observed reconvergence point.
		mergePC, _ := c.streams[a.members.First()].nextPC()
		site := a.divergePC
		if site == 0 {
			site = b.divergePC
		}
		c.rec.Event(obs.Event{TS: c.now, Kind: obs.EvRemerge, Track: int32(a.members.First()),
			PC: mergePC, Arg: uint64((a.members | b.members).Count()), Site: site, Cost: dist})
	}
	c.dissolveLinks(a)
	c.dissolveLinks(b)
	a.members |= b.members
	a.takenSinceDiverge = 0
	a.divergePC = 0
	a.parked = false
	a.parkCooldown = 0
	if b.stallUntil > a.stallUntil {
		a.stallUntil = b.stallUntil
	}
	b.dead = true
	b.members = 0
	// The FHBs keep their rolling history: if the merged group diverges
	// again soon, the recent common-path targets are still valid for
	// re-detecting the remerge (stale entries are handled by the
	// CATCHUP false-positive abort).
}

// splitGroup replaces g with one subgroup per distinct next PC after a
// divergent control instruction at pc (the attributed divergence site);
// subs[i] is the subgroup for parts[i].
func (c *Core) splitGroup(g *group, parts []ITID, pc uint64) (subs [MaxThreads]*group) {
	c.stats.Divergences++
	c.dissolveLinks(g)
	g.dead = true
	g.members = 0
	for i, p := range parts {
		subs[i] = c.newGroup(p, g.stallUntil, pc)
	}
	return subs
}

// fetchOrder returns groups in fetch priority order: behind (CATCHUP)
// groups first, then ordinary groups round-robin, then ahead-engaged
// groups — but only when every group catching up to them cannot fetch
// this cycle. The paper lowers the ahead thread's priority so the behind
// thread can close the gap (§4.1); with one group fetching per cycle,
// lowest priority means exactly this.
func (c *Core) fetchOrder(now uint64) []*group {
	gs := c.liveGroups()
	// The behind groups start the order.
	order, normal, engaged := c.scratch.order[:0], c.scratch.normal[:0], c.scratch.engaged[:0]
	for _, g := range gs {
		switch {
		case g.ahead != nil:
			order = append(order, g)
		case g.behindCnt > 0:
			engaged = append(engaged, g)
		default:
			normal = append(normal, g)
		}
	}
	r := 0
	if len(normal) > 1 {
		r = int(c.rotate) % len(normal)
	}
	c.rotate++
	order = append(order, normal[r:]...)
	order = append(order, normal[:r]...)
	for _, g := range engaged {
		allStalled := true
		for _, b := range gs {
			if b.ahead == g && c.canFetch(b, now) {
				allStalled = false
				break
			}
		}
		if allStalled {
			order = append(order, g)
		}
	}
	c.scratch.order, c.scratch.normal, c.scratch.engaged = order, normal, engaged
	return order
}

// fetchStage fetches up to FetchWidth instructions of one group into the
// fetch queue: groups try in fetch order, and the first that fetches
// anything (burning wrong-path slots counts) ends the cycle's fetch.
func (c *Core) fetchStage(now uint64) {
	c.attemptMerges(now)
	for _, g := range c.fetchOrder(now) {
		n := c.fetchGroup(g, now)
		if g.ahead != nil {
			g.catchupInsts += uint64(n)
			if g.catchupInsts > catchupLimit {
				c.stats.CatchupsAborted++
				c.emit(obs.EvCatchupAbort, int32(g.members.First()), 0, g.catchupInsts)
				c.cancelCatchup(g)
				g.catchupInsts = 0
			}
		}
		if n > 0 {
			break
		}
	}
	// Nothing walks the groups that died this stage any more.
	c.freeGroups = append(c.freeGroups, c.deadGroups...)
	c.deadGroups = c.deadGroups[:0]
}

// fetchGroup fetches a run of instructions for one group; returns the
// number of fetch slots consumed.
func (c *Core) fetchGroup(g *group, now uint64) int {
	// A group waiting on an unresolved mispredicted branch fetches down
	// the wrong path: the slots are consumed (and never become uops),
	// instead of being silently re-assigned to other threads.
	if g.waitBranch != nil && g.stallUntil <= now && !g.dead {
		c.stats.WrongPathFetchSlots += uint64(c.cfg.FetchWidth)
		return c.cfg.FetchWidth
	}
	c.pruneExhausted(g)
	if !c.canFetch(g, now) {
		return 0
	}
	leader := g.members.First()
	startPC, _ := c.streams[leader].nextPC()

	// Trace-cache lookup at the cycle's fetch point: per §5's "perfect
	// trace prediction", control flow inside a resident trace never pays
	// a resolution stall.
	traceHit := c.tc != nil && c.tc.Lookup(startPC)
	if traceHit {
		c.stats.TraceCacheHits++
	}

	fetched := 0
	var curLine uint64
	lineValid := false
	for fetched < c.cfg.FetchWidth {
		if len(c.fetchQ.uops) >= c.cfg.FetchQueue {
			c.stats.FetchQFullStop++
			c.noteStall(obs.StallFetchQ)
			break
		}
		rec, ok := c.streams[leader].peek()
		if !ok {
			break
		}
		// CATCHUP completion: the behind group's fetch PC reached the
		// (frozen) ahead group's PC — merge instead of fetching past
		// it. This check must be per-instruction: at 8-wide fetch the
		// behind thread would otherwise jump over the merge point
		// inside a cycle.
		if g.ahead != nil && !g.ahead.dead {
			if apc, aok := c.streams[g.ahead.members.First()].nextPC(); aok && apc == rec.pc {
				ahead := g.ahead
				c.mergeGroups(ahead, g)
				break
			}
		}
		// Software-hint synchronization (Thread Fusion baseline): park
		// at a remerge hint while other thread groups are still out,
		// so they can arrive and merge here.
		if c.cfg.Sync == SyncHints && c.hintPCs[rec.pc] && now >= g.parkCooldown &&
			g.members.Count() < c.cfg.Threads && len(c.liveGroups()) > 1 {
			g.parked = true
			g.parkDeadline = now + c.cfg.HintParkTimeout
			c.stats.HintParks++
			break
		}
		// Instruction-cache access at line granularity.
		line := rec.pc &^ uint64(c.cfg.Mem.L1I.LineBytes-1)
		if !lineValid || line != curLine {
			done := c.mem.FetchInst(rec.pc, now)
			curLine, lineValid = line, true
			if done > now+c.cfg.Mem.L1Latency {
				g.stallUntil = done
				break
			}
		}

		if c.pruneExhausted(g) {
			break // a member's cap hit mid-run; regroup next cycle
		}
		u := c.buildUop(g, rec, now, traceHit)
		fetched++
		if u == nil { // divergence or stall decided inside
			break
		}
		if u.halt {
			break
		}
		if u.inst.Op.IsControl() {
			if g.waitBranch != nil {
				break // mispredicted: stall until resolution
			}
			if c.eff(u, leader).Taken {
				break // redirect: resume next cycle
			}
		}
	}
	return fetched
}

// buildUop consumes one record from every member stream, creates the uop,
// places it in the fetch queue, and handles control-flow consequences
// (prediction, divergence, FHB bookkeeping). Returns nil when the group
// diverged (the uop itself is still enqueued).
func (c *Core) buildUop(g *group, leadRec *dynRec, now uint64, traceHit bool) *uop {
	u := c.newUop()
	u.pc = leadRec.pc
	u.inst = leadRec.inst
	u.class = leadRec.inst.Op.Class()
	u.itid = g.members
	u.fetchITID = g.members
	u.mode = g.fetchMode()
	u.halt = leadRec.inst.Op == isa.OpHalt
	u.isLoad = u.class == isa.ClassLoad
	u.isStore = u.class == isa.ClassStore
	for m := g.members; m != 0; m &= m - 1 {
		t := m.First()
		rec, ok := c.streams[t].peek()
		if !ok {
			panic(fmt.Sprintf("core: group invariant violated: thread %d exhausted, leader at %#x", t, u.pc))
		}
		if rec.pc != u.pc {
			panic(fmt.Sprintf("core: group invariant violated: thread %d at %#x, leader at %#x", t, rec.pc, u.pc))
		}
		u.dynIdx[t] = rec.idx
		c.streams[t].advance()
	}
	c.fetchQ.push(u)
	c.stats.FetchAccesses++
	c.stats.FetchedByMode[u.mode] += uint64(g.members.Count())

	if !u.inst.Op.IsControl() {
		return u
	}
	return c.handleControl(g, u, now, traceHit)
}

// handleControl performs branch prediction, detects divergence, and drives
// the DETECT/CATCHUP state machine. Returns nil if the group diverged.
// traceHit enables perfect trace prediction: control flow along the
// (leader's) trace path pays no resolution stall, and subgroups leaving
// the trace pay only a fixed front-end redirect.
func (c *Core) handleControl(g *group, u *uop, now uint64, traceHit bool) *uop {
	leader := g.members.First()
	lead := c.eff(u, leader)
	c.stats.BranchUops++

	// Partition members by actual next PC (the oracle's outcomes).
	var parts [MaxThreads]ITID
	var partPC [MaxThreads]uint64
	nparts := 0
	for m := g.members; m != 0; m &= m - 1 {
		t := m.First()
		np := c.eff(u, t).NextPC
		i := 0
		for i < nparts && partPC[i] != np {
			i++
		}
		if i == nparts {
			partPC[i] = np
			nparts++
		}
		parts[i] = parts[i].With(t)
	}

	// Prediction. One front-end prediction per fetched control uop.
	predictedNext := u.pc + isa.InstBytes
	switch {
	case u.inst.Op.IsBranch():
		if c.bp.Dir.Predict(leader, u.pc) {
			predictedNext = uint64(u.inst.Imm)
		}
		// Train with each member's outcome (shared PHT, per-thread
		// history, as in an SMT front end).
		for m := g.members; m != 0; m &= m - 1 {
			t := m.First()
			c.bp.Dir.Update(t, u.pc, c.eff(u, t).Taken)
		}
	case u.inst.Op == isa.OpJal:
		predictedNext = uint64(u.inst.Imm)
		if u.inst.Rd == isa.RegRA {
			for m := g.members; m != 0; m &= m - 1 {
				c.bp.RAS[m.First()].Push(u.pc + isa.InstBytes)
			}
		}
	case u.inst.Op == isa.OpJalr:
		if u.inst.Rd == isa.RegZero && u.inst.Rs1 == isa.RegRA {
			// Return: predict with the RAS.
			for m := g.members; m != 0; m &= m - 1 {
				t := m.First()
				if tgt, ok := c.bp.RAS[t].Pop(); ok && t == leader {
					predictedNext = tgt
				}
			}
		} else {
			if tgt, ok := c.bp.BTB.Lookup(u.pc); ok {
				predictedNext = tgt
			}
			c.bp.BTB.Insert(u.pc, lead.NextPC)
		}
	}

	// Taken-branch bookkeeping: FHB recording and catchup transitions
	// happen whenever the machine is not globally merged.
	takenAny := false
	for m := g.members; m != 0; m &= m - 1 {
		if c.eff(u, m.First()).Taken {
			takenAny = true
		}
	}
	if takenAny && c.cfg.SharedFetch && len(c.liveGroups()) > 1 {
		g.takenSinceDiverge++
		if c.cfg.Sync == SyncFHB {
			target := lead.NextPC
			for m := g.members; m != 0; m &= m - 1 {
				c.fhb[m.First()].Record(target)
				c.stats.FHBInserts++
			}
			c.updateCatchup(g, target)
		}
	}

	// The path the front end follows without a redirect: the trace path
	// under perfect trace prediction, the predictor's path otherwise.
	followPath := predictedNext
	if traceHit {
		followPath = lead.NextPC
	}

	if nparts > 1 {
		// Divergence: split the group. Subgroups leaving the followed
		// path redirect — a fixed front-end penalty under a trace hit,
		// a stall until the branch resolves otherwise.
		c.emit(obs.EvDiverge, int32(leader), u.pc, uint64(nparts))
		subs := c.splitGroup(g, parts[:nparts], u.pc)
		for i, sg := range subs[:nparts] {
			if partPC[i] == followPath {
				continue
			}
			c.stats.Mispredicts++
			c.emit(obs.EvMispredict, int32(sg.members.First()), u.pc, 0)
			if traceHit {
				if s := now + c.cfg.DivergeRedirectPenalty; s > sg.stallUntil {
					sg.stallUntil = s
				}
			} else {
				sg.waitBranch = u
				u.stalledGroups = append(u.stalledGroups, sg)
			}
		}
		return nil
	}

	// Unanimous outcome: a wrong front-end path stalls the whole group.
	if lead.NextPC != followPath {
		c.stats.Mispredicts++
		c.emit(obs.EvMispredict, int32(leader), u.pc, 0)
		g.waitBranch = u
		u.stalledGroups = append(u.stalledGroups, g)
	}
	return u
}

// updateCatchup advances the DETECT/CATCHUP state machine for group g
// after it fetched a taken branch to target.
func (c *Core) updateCatchup(g *group, target uint64) {
	c.stats.FHBSearches++
	if g.ahead != nil {
		// CATCHUP: the behind group must keep finding its targets in
		// the ahead group's history, else the match was a false
		// positive and we fall back to DETECT (§4.1).
		if !c.groupFHBContains(g.ahead, target) {
			c.stats.CatchupsAborted++
			c.emit(obs.EvCatchupAbort, int32(g.members.First()), target, g.catchupInsts)
			c.cancelCatchup(g)
		}
		return
	}
	// DETECT: search other groups' member FHBs for our target.
	for _, o := range c.groups {
		if o.dead || o == g || o.members&g.members != 0 {
			continue
		}
		if c.groupFHBContains(o, target) {
			g.ahead = o
			g.catchupInsts = 0
			o.behindCnt++
			c.stats.CatchupsStarted++
			c.emit(obs.EvCatchupStart, int32(g.members.First()), target, uint64(o.members.First()))
			return
		}
	}
}

func (c *Core) groupFHBContains(g *group, target uint64) bool {
	for m := g.members; m != 0; m &= m - 1 {
		if c.fhb[m.First()].Contains(target) {
			return true
		}
	}
	return false
}

// retireTrace feeds the per-thread trace builders at commit.
func (c *Core) retireTrace(u *uop) {
	if c.tc == nil {
		return
	}
	for m := u.itid; m != 0; m &= m - 1 {
		t := m.First()
		c.tb[t].Retire(u.pc, c.eff(u, t).Taken)
	}
}
