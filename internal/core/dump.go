package core

import (
	"fmt"
	"strings"
)

// DumpState renders the machine's scheduling state for diagnostics: fetch
// groups, queue occupancies, per-thread ROB heads and stream positions.
func (c *Core) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d seq %d | fetchQ %d window %d robOcc %d iqOcc %d lsqOcc %d\n",
		c.now, c.seq, len(c.fetchQ.uops), len(c.window.uops), c.robOcc, c.iqOcc, c.lsqOcc)
	for i, g := range c.groups {
		if g.dead {
			continue
		}
		pc, ok := c.streams[g.members.First()].nextPC()
		status := "?"
		if ok {
			status = fmt.Sprintf("%#x", pc)
		} else {
			status = "exhausted"
		}
		wb := "-"
		if g.waitBranch != nil {
			wb = fmt.Sprintf("seq%d@%#x(state=%d)", g.waitBranch.seq, g.waitBranch.pc, g.waitBranch.state)
		}
		ahead := "-"
		if g.ahead != nil {
			ahead = g.ahead.members.String()
		}
		fmt.Fprintf(&b, "group %d members=%s nextPC=%s stallUntil=%d waitBranch=%s ahead=%s behindCnt=%d\n",
			i, g.members, status, g.stallUntil, wb, ahead, g.behindCnt)
	}
	for t := 0; t < c.cfg.Threads; t++ {
		head := "-"
		if len(c.robQ[t].uops) > 0 {
			u := c.robQ[t].uops[0]
			head = fmt.Sprintf("seq%d@%#x %s itid=%s state=%d ndeps=%d doneAt=%d",
				u.seq, u.pc, u.inst, u.itid, u.state, u.ndeps, u.doneAt)
		}
		fmt.Fprintf(&b, "thread %d robQ=%d head: %s\n", t, len(c.robQ[t].uops), head)
	}
	n := 0
	for _, u := range c.window.uops {
		if u.state == uopWaiting && n < 8 {
			fmt.Fprintf(&b, "waiting: seq%d@%#x %s itid=%s ndeps=%d\n", u.seq, u.pc, u.inst, u.itid, u.ndeps)
			n++
		}
	}
	return b.String()
}
