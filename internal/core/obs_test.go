package core

import (
	"reflect"
	"strings"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/obs"
	"mmt/internal/prog"
)

// TestObsEventsMatchStats runs the divergence workload with a Collector
// attached and cross-checks the discrete event stream against the final
// statistics: every counted divergence, remerge, catchup episode and
// rollback must appear as exactly one event.
func TestObsEventsMatchStats(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	sys := buildSys(t, divergeSrc, prog.ModeME, 2, init)
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	c.Attach(col, 50)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	counts := map[obs.EventKind]uint64{}
	var lastTS uint64
	for _, e := range col.Events {
		counts[e.Kind]++
		if e.TS < lastTS {
			t.Fatalf("events out of order: %d after %d", e.TS, lastTS)
		}
		lastTS = e.TS
	}
	for _, chk := range []struct {
		kind obs.EventKind
		want uint64
	}{
		{obs.EvDiverge, st.Divergences},
		{obs.EvRemerge, st.Remerges},
		{obs.EvCatchupStart, st.CatchupsStarted},
		{obs.EvCatchupAbort, st.CatchupsAborted},
		{obs.EvRollback, st.LVIPRollbacks},
		{obs.EvMispredict, st.Mispredicts},
	} {
		if counts[chk.kind] != chk.want {
			t.Errorf("%s events: %d, stats say %d", chk.kind, counts[chk.kind], chk.want)
		}
	}
	if st.Divergences == 0 {
		t.Fatal("workload produced no divergences; test exercises nothing")
	}

	// Periodic samples: one every 50 cycles, monotone, final occupancies
	// drained.
	if want := st.Cycles / 50; uint64(len(col.Samples)) != want {
		t.Errorf("%d samples over %d cycles (want %d)", len(col.Samples), st.Cycles, want)
	}
	for i := 1; i < len(col.Samples); i++ {
		if col.Samples[i].TS <= col.Samples[i-1].TS || col.Samples[i].Committed < col.Samples[i-1].Committed {
			t.Fatalf("samples not monotone at %d: %+v %+v", i, col.Samples[i-1], col.Samples[i])
		}
	}
}

// TestAttachDoesNotChangeSimulation: an attached recorder must observe,
// never perturb — identical final statistics with and without one.
func TestAttachDoesNotChangeSimulation(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	run := func(attach bool) *Stats {
		sys := buildSys(t, divergeSrc, prog.ModeME, 2, init)
		cfg := DefaultConfig(2)
		cfg.MaxCycles = 2_000_000
		c, err := New(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			c.Attach(obs.NewCollector(), 10)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain, traced := run(false), run(true)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("recorder changed the simulation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// countingProbe counts the attribution events a profiler charges to
// static PCs (commits and CPI components), plus the divergences and
// remerges it keys its sites and edges on.
type countingProbe struct {
	commits, diverges, remerges int
	cycles                      [NumCycleComponents]uint64
}

func (p *countingProbe) Event(e obs.Event) {
	switch e.Kind {
	case obs.EvCommit:
		p.commits++
	case obs.EvDiverge:
		p.diverges++
	case obs.EvRemerge:
		p.remerges++
	case obs.EvCycle:
		p.cycles[e.Arg]++
	}
}
func (p *countingProbe) Sample(obs.Sample) {}
func (p *countingProbe) Close() error      { return nil }

// TestProbeDoesNotChangeStats: attaching an attribution probe observes the
// run without perturbing it — the simulated statistics must be identical —
// and its stream charges every cycle to exactly one CPI component and
// every committed uop once.
func TestProbeDoesNotChangeStats(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	run := func(p obs.Recorder) *Stats {
		sys := buildSys(t, divergeSrc, prog.ModeME, 2, init)
		cfg := DefaultConfig(2)
		cfg.MaxCycles = 2_000_000
		c, err := New(cfg, sys)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			c.Attach(p, 0)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil)
	probe := &countingProbe{}
	probed := run(probe)

	if !reflect.DeepEqual(plain, probed) {
		t.Errorf("probe changed the run:\nplain:  %+v\nprobed: %+v", plain, probed)
	}

	// The per-cycle component stream must cover every cycle exactly once.
	var total uint64
	for _, n := range probe.cycles {
		total += n
	}
	if total != probed.Cycles {
		t.Errorf("probe saw %d cycle events, run took %d cycles", total, probed.Cycles)
	}
	if probe.commits == 0 || uint64(probe.commits) != probed.CommittedUops {
		t.Errorf("probe saw %d commits, stats say %d committed uops", probe.commits, probed.CommittedUops)
	}
	if probe.diverges == 0 || probe.remerges == 0 {
		t.Errorf("probe saw %d diverges, %d remerges on a divergent workload", probe.diverges, probe.remerges)
	}
	if uint64(probe.diverges) != probed.Divergences || uint64(probe.remerges) != probed.Remerges {
		t.Errorf("probe diverges=%d remerges=%d, stats say %d and %d",
			probe.diverges, probe.remerges, probed.Divergences, probed.Remerges)
	}
}

// TestLateAttachClassifiesCycles: a recorder attached mid-run (mmtpipe
// -from) must charge every cycle it observes to the CPI component that a
// recorder attached from cycle 0 charges it to, including the first
// observed cycle and cycles of a rollback window that opened before the
// attach.
func TestLateAttachClassifiesCycles(t *testing.T) {
	stormSrc := strings.Replace(rollbackStormSrc, "li    r7, 100000000", "li    r7, 40", 1)
	if stormSrc == rollbackStormSrc {
		t.Fatal("rollbackStormSrc no longer sets its trip count with li r7, 100000000")
	}
	stormCfg := DefaultConfig(4)
	stormCfg.LVIPSize = 1
	for _, tc := range []struct {
		name string
		src  string
		cfg  Config
		init prog.InitFunc
	}{
		{"diverge-2T", divergeSrc, DefaultConfig(2), func(ctx int, mem *prog.Memory) {
			mem.Write64(prog.DataBase, uint64(ctx%2))
		}},
		{"rollback-storm-4T", stormSrc, stormCfg, func(ctx int, mem *prog.Memory) {
			mem.Write64(prog.DataBase, uint64(1000+ctx*111))
			mem.Write64(prog.DataBase+8, uint64(2+ctx*2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// components runs the workload, attaching a collector at
			// cycle attachAt, and returns each observed cycle's
			// component keyed by EvCycle's timestamp.
			components := func(attachAt uint64) map[uint64]uint64 {
				c, err := New(tc.cfg, buildSys(t, tc.src, prog.ModeME, tc.cfg.Threads, tc.init))
				if err != nil {
					t.Fatal(err)
				}
				for c.now < attachAt {
					if err := c.step(); err != nil {
						t.Fatal(err)
					}
				}
				col := obs.NewCollector()
				c.Attach(col, 0)
				if _, err := c.Run(); err != nil {
					t.Fatal(err)
				}
				comps := map[uint64]uint64{}
				for _, e := range col.Events {
					if e.Kind == obs.EvCycle {
						comps[e.TS] = e.Arg
					}
				}
				return comps
			}
			want := components(0)
			var rollback int
			for _, comp := range want {
				if comp == uint64(CycRollback) {
					rollback++
				}
			}
			if rollback == 0 {
				t.Fatal("no rollback cycles; the workload opens no rollback window")
			}
			stride := uint64(len(want))/80 + 1
			for n := uint64(1); n < uint64(len(want)); n += stride {
				got := components(n)
				if len(got) != len(want)-int(n) {
					t.Fatalf("attached at %d: %d cycles observed, want %d", n, len(got), len(want)-int(n))
				}
				for ts, comp := range got {
					if comp != want[ts] {
						t.Errorf("attached at %d: cycle %d charged to component %d, want %d", n, ts-1, comp, want[ts])
					}
				}
			}
		})
	}
}

// TestNilRecorderZeroAllocs pins the disabled-path cost: every emission
// site is a nil compare, so instrumentation with no recorder attached must
// allocate nothing.
func TestNilRecorderZeroAllocs(t *testing.T) {
	sys := buildSys(t, wideLoopSrc, prog.ModeME, 2, nil)
	c, err := New(DefaultConfig(2), sys)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.emit(obs.EvDiverge, 0, 0x1000, 2)
		c.noteStall(obs.StallROB)
	}); allocs != 0 {
		t.Errorf("nil-recorder emit path allocates %v per run", allocs)
	}
}

// TestNilProbeZeroAllocs: the attribution events (one per commit, LVIP
// hit, cycle and behind group's cycle) are the stream's hottest sites, so
// with no profiler attached they must allocate nothing either.
func TestNilProbeZeroAllocs(t *testing.T) {
	sys := buildSys(t, wideLoopSrc, prog.ModeME, 2, nil)
	c, err := New(DefaultConfig(2), sys)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.emit(obs.EvCommit, 0, 0x40, uint64(CommitMerged))
		c.emit(obs.EvLVIPHit, 0, 0x40, 0)
		c.emit(obs.EvCycle, obs.TrackMachine, 0, uint64(CycBase))
		c.emit(obs.EvCatchupCycle, 1, 0x40, 0)
	}); allocs != 0 {
		t.Errorf("nil-probe attribution path allocates %v per run", allocs)
	}
}

// BenchmarkCycleNilRecorder measures a full pipeline cycle with no recorder
// attached — the baseline the instrumentation must not regress. Run with
// -benchmem: the report asserts the allocation story the package doc
// promises.
func BenchmarkCycleNilRecorder(b *testing.B) {
	benchmarkCycle(b, false)
}

// BenchmarkCycleCollector is the same loop with a Collector attached, for
// comparing the enabled-path overhead.
func BenchmarkCycleCollector(b *testing.B) {
	benchmarkCycle(b, true)
}

func benchmarkCycle(b *testing.B, attach bool) {
	p, err := asm.Assemble("bench", wideLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	newCore := func() *Core {
		sys, err := prog.NewSystem(p, prog.ModeME, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(DefaultConfig(2), sys)
		if err != nil {
			b.Fatal(err)
		}
		if attach {
			col := obs.NewCollector()
			c.Attach(col, 0)
		}
		return c
	}
	c := newCore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.allDone() {
			b.StopTimer()
			c = newCore()
			b.StartTimer()
		}
		c.Cycle()
	}
}
