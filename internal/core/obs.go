package core

import "mmt/internal/obs"

// Attach wires an observer into the core: rec receives the typed event
// stream (divergences, remerges, catchup episodes, rollbacks, squashes,
// mispredicts, fetch-mode and stall-cause edges) and — when sampleEvery is
// non-zero — one occupancy/throughput sample every sampleEvery cycles.
//
// Every emission site guards on the recorder being nil, so an unattached
// core pays one pointer compare per site and allocates nothing; attaching
// never changes simulated behaviour, only reports it.
func (c *Core) Attach(rec obs.Recorder, sampleEvery uint64) {
	c.rec = rec
	c.sampleEvery = sampleEvery
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
// attached: it emits stall-cause and fetch-mode-mix edges and the periodic
// occupancy sample.
func (c *Core) observeCycle() {
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
		c.rec.Sample(c.sample())
	}
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

// sample snapshots the machine for the periodic cycle sample.
func (c *Core) sample() obs.Sample {
	m, d, cu := c.groupModeMix()
	return obs.Sample{
		TS:             c.now,
		Committed:      c.stats.TotalCommitted(),
		FetchQ:         len(c.fetchQ.uops),
		ROB:            c.robOcc,
		IQ:             c.iqOcc,
		LSQ:            c.lsqOcc,
		GroupsMerge:    m,
		GroupsDetect:   d,
		GroupsCatchup:  cu,
		FetchedMerge:   c.stats.FetchedByMode[FetchMerge],
		FetchedDetect:  c.stats.FetchedByMode[FetchDetect],
		FetchedCatchup: c.stats.FetchedByMode[FetchCatchup],
	}
}
