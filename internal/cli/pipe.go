package cli

import (
	"fmt"
	"io"
	"strings"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/sim"
)

// RunPipe is the mmtpipe command: a cycle-by-cycle pipeline trace. The
// per-cycle event column is driven by the core's obs event stream — the
// same one -trace-out captures — collected through an obs.Collector, so
// mmtpipe shows exactly what a trace file would contain instead of
// re-deriving events from statistics deltas.
func RunPipe(args []string, out io.Writer) error {
	fs := newFlags("mmtpipe", out)
	var (
		appName = fs.String("app", "equake", "application name")
		preset  = fs.String("preset", "MMT-FXR", "configuration preset")
		threads = fs.Int("threads", 2, "hardware threads")
		from    = fs.Uint64("from", 0, "skip to this cycle before tracing")
		cycles  = fs.Uint64("cycles", 80, "cycles to trace")
		dump    = fs.Uint64("dump", 0, "also print full machine state every N traced cycles (0 = off)")
		stalls  = fs.Bool("stalls", false, "also show stall-cause edges in the event column")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}

	t, err := sim.TaskSpec{App: *appName, Preset: sim.Preset(*preset), Threads: *threads}.Task()
	if err != nil {
		return err
	}
	c, err := t.Core()
	if err != nil {
		return err
	}

	st := c.Stats()
	for st.Cycles < *from {
		c.Cycle()
	}

	// Attach only after the warmup skip, so the collector holds just the
	// traced window.
	col := obs.NewCollector()
	c.Attach(col, 0)

	fmt.Fprintf(out, "%s / %s / %dT — tracing cycles %d..%d\n", t.App.Name, t.Preset, t.Threads, *from, *from+*cycles)
	fmt.Fprintf(out, "%8s %6s %6s %6s %6s %7s %6s %5s  %s\n",
		"cycle", "fetch", "renam", "issue", "commit", "mode", "div", "merg", "events")
	prev := *st
	for i := uint64(0); i < *cycles; i++ {
		c.Cycle()
		cur := *st
		fmt.Fprintf(out, "%8d %6d %6d %6d %6d %7s %6d %5d %s\n",
			cur.Cycles,
			cur.FetchAccesses-prev.FetchAccesses,
			cur.RenamedUops-prev.RenamedUops,
			cur.IssuedUops-prev.IssuedUops,
			cur.CommittedUops-prev.CommittedUops,
			modeGlyph(modeOfCycle(&prev, &cur)),
			cur.Divergences, cur.Remerges,
			formatEvents(col.Drain(), *stalls))
		if *dump > 0 && (i+1)%*dump == 0 {
			fmt.Fprintln(out, c.DumpState())
		}
		prev = cur
	}
	fmt.Fprintf(out, "\ntotals: committed %d per-thread instructions in %d cycles (IPC %.2f)\n",
		st.TotalCommitted(), st.Cycles, st.IPC())
	return nil
}

// formatEvents renders one cycle's drained events as the trailing trace
// column. Fetch-mode edges are skipped (the mode column already shows the
// mix) and stall edges only appear with -stalls.
func formatEvents(events []obs.Event, stalls bool) string {
	var b strings.Builder
	for _, e := range events {
		switch e.Kind {
		case obs.EvDiverge:
			fmt.Fprintf(&b, " DIVERGE@%#x(t%d→%d)", e.PC, e.Track, e.Arg)
		case obs.EvRemerge:
			fmt.Fprintf(&b, " REMERGE(%d members)", e.Arg)
		case obs.EvCatchupStart:
			fmt.Fprintf(&b, " CATCHUP(t%d→%#x)", e.Arg, e.PC)
		case obs.EvCatchupAbort:
			fmt.Fprintf(&b, " CATCHUP-ABORT(t%d)", e.Track)
		case obs.EvRollback:
			fmt.Fprintf(&b, " ROLLBACK@%#x", e.PC)
		case obs.EvSquash:
			fmt.Fprintf(&b, " SQUASH×%d", e.Arg)
		case obs.EvMispredict:
			fmt.Fprintf(&b, " MISPRED(t%d)", e.Track)
		case obs.EvStall:
			if stalls && obs.StallCause(e.Arg) != obs.StallNone {
				fmt.Fprintf(&b, " stall:%s", obs.StallCause(e.Arg))
			}
		}
	}
	return b.String()
}

// modeOfCycle returns the per-thread instructions fetched this cycle in
// each mode.
func modeOfCycle(prev, cur *core.Stats) (m, d, cu uint64) {
	return cur.FetchedByMode[core.FetchMerge] - prev.FetchedByMode[core.FetchMerge],
		cur.FetchedByMode[core.FetchDetect] - prev.FetchedByMode[core.FetchDetect],
		cur.FetchedByMode[core.FetchCatchup] - prev.FetchedByMode[core.FetchCatchup]
}

func modeGlyph(m, d, cu uint64) string {
	switch {
	case m == 0 && d == 0 && cu == 0:
		return "-"
	case m > 0 && d == 0 && cu == 0:
		return "MERGE"
	case cu > 0:
		return "CATCHUP"
	case d > 0 && m == 0:
		return "DETECT"
	default:
		return "mixed"
	}
}
