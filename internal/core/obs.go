package core

import "mmt/internal/obs"

// CommitClass classifies one committed uop for per-PC attribution (the
// per-uop view of the Fig. 5b per-instruction classes); it is EvCommit's
// Arg.
type CommitClass uint8

const (
	// CommitMerged: executed once for several threads (execute-identical).
	CommitMerged CommitClass = iota
	// CommitSplit: fetched merged but executed per-thread.
	CommitSplit
	// CommitSolo: fetched and executed for a single thread.
	CommitSolo
)

// CycleComponent is the CPI-stack bucket one core cycle is charged to; it
// is EvCycle's Arg. Every cycle lands in exactly one component, so over a
// run the component counts sum to Stats.Cycles. Classification priority:
// base (something committed) > rollback (inside an LVIP rollback
// redirect window) > catchup (a behind group is chasing an ahead group)
// > drain (some thread's stream is exhausted while others still run)
// > fetch-stall (no commit and none of the above — front-end or
// backpressure limited, the catch-all for memory/queue stalls).
type CycleComponent uint8

const (
	// CycBase: at least one uop committed this cycle.
	CycBase CycleComponent = iota
	// CycFetchStall: nothing committed; no more specific cause applies.
	CycFetchStall
	// CycCatchup: nothing committed while a CATCHUP episode was active.
	CycCatchup
	// CycRollback: nothing committed inside an LVIP rollback penalty
	// window.
	CycRollback
	// CycDrain: nothing committed and at least one thread has drained
	// (exhausted its stream) while the machine finishes the rest.
	CycDrain

	NumCycleComponents
)

// Attach wires an observer into the core: rec receives the typed event
// stream and — when sampleEvery is non-zero — one occupancy/throughput
// sample every sampleEvery cycles. The stream carries timeline events
// (divergences, remerges, catchup episodes, rollbacks, squashes,
// mispredicts, fetch-mode and stall-cause edges) and the attribution
// events a profiler charges to static PCs (each committed uop's class,
// LVIP hits, each cycle's CPI component and catchup cycles).
//
// Every emission site guards on the recorder being nil, so an unattached
// core pays one pointer compare per site and allocates nothing; attaching
// never changes simulated behaviour, only reports it. Attach may come
// mid-run (mmtpipe -from): the first observed cycle is classified
// against the state at the attach.
func (c *Core) Attach(rec obs.Recorder, sampleEvery uint64) {
	c.rec = rec
	c.sampleEvery = sampleEvery
	c.cycleCommitted = c.stats.CommittedUops
}

// emit sends one discrete event at the current cycle.
func (c *Core) emit(kind obs.EventKind, track int32, pc, arg uint64) {
	if c.rec == nil {
		return
	}
	c.rec.Event(obs.Event{TS: c.now, Kind: kind, Track: track, PC: pc, Arg: arg})
}

// noteStall records this cycle's dominant backpressure cause (first site
// to report wins); observeCycle turns changes into EvStall edges.
func (c *Core) noteStall(cause obs.StallCause) {
	if c.rec != nil && c.cycleStall == obs.StallNone {
		c.cycleStall = cause
	}
}

// observeCycle runs at the end of every cycle while a recorder is
// attached; now is the cycle that just ran. It emits, in order: the
// stall-cause edge, the fetch-mode-mix edge, the periodic sample, the
// cycle's CPI component and one EvCatchupCycle per behind group.
func (c *Core) observeCycle(now uint64) {
	if c.cycleStall != c.lastStall {
		c.emit(obs.EvStall, obs.TrackMachine, 0, uint64(c.cycleStall))
		c.lastStall = c.cycleStall
	}
	c.cycleStall = obs.StallNone

	m, d, cu := c.groupModeMix()
	packed := obs.PackModeMix(m, d, cu)
	if packed != c.lastModeMix {
		c.emit(obs.EvFetchMode, obs.TrackMachine, 0, packed)
		c.lastModeMix = packed
	}

	if c.sampleEvery > 0 && c.now%c.sampleEvery == 0 {
		c.rec.Sample(c.sample(m, d, cu))
	}

	// A live group is in CATCHUP exactly when it has an ahead group.
	comp := CycFetchStall
	switch {
	case c.stats.CommittedUops > c.cycleCommitted:
		comp = CycBase
	case now < c.rollbackUntil:
		comp = CycRollback
	case cu > 0:
		comp = CycCatchup
	case c.anyDrained():
		comp = CycDrain
	}
	c.cycleCommitted = c.stats.CommittedUops
	c.emit(obs.EvCycle, obs.TrackMachine, 0, uint64(comp))
	if cu > 0 {
		for _, g := range c.groups {
			if !g.dead && g.ahead != nil {
				c.emit(obs.EvCatchupCycle, int32(g.members.First()), g.divergePC, 0)
			}
		}
	}
}

// anyDrained reports whether any thread's stream is exhausted (halted or
// instruction-capped) while the machine still runs.
func (c *Core) anyDrained() bool {
	for _, s := range c.streams {
		if _, ok := s.nextPC(); !ok {
			return true
		}
	}
	return false
}

// groupModeMix counts live fetch groups by mode.
func (c *Core) groupModeMix() (merge, detect, catchup int) {
	var mix [3]int
	for _, g := range c.groups {
		if !g.dead {
			mix[g.fetchMode()]++
		}
	}
	return mix[FetchMerge], mix[FetchDetect], mix[FetchCatchup]
}

// sample snapshots the machine for the periodic cycle sample, given the
// live-group mode mix.
func (c *Core) sample(merge, detect, catchup int) obs.Sample {
	return obs.Sample{
		TS:             c.now,
		Committed:      c.stats.TotalCommitted(),
		FetchQ:         len(c.fetchQ.uops),
		ROB:            c.robOcc,
		IQ:             c.iqOcc,
		LSQ:            c.lsqOcc,
		GroupsMerge:    merge,
		GroupsDetect:   detect,
		GroupsCatchup:  catchup,
		FetchedMerge:   c.stats.FetchedByMode[FetchMerge],
		FetchedDetect:  c.stats.FetchedByMode[FetchDetect],
		FetchedCatchup: c.stats.FetchedByMode[FetchCatchup],
	}
}
