// Package cli implements the command-line tools (mmtsim, mmtprofile,
// mmtbench, mmtpipe) as testable functions; the cmd/ mains are thin
// wrappers around these.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mmt/internal/asm"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/prof"
	"mmt/internal/prog"
	"mmt/internal/runner"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// RunSim is the mmtsim command: run one workload under one configuration
// and print detailed statistics.
func RunSim(args []string, out io.Writer) error {
	fs := newFlags("mmtsim", out)
	var (
		appName  = fs.String("app", "ammp", "application name (see -list)")
		preset   = fs.String("preset", "MMT-FXR", "configuration: Base, MMT-F, MMT-FX, MMT-FXR, Limit")
		threads  = fs.Int("threads", 2, "hardware threads (1-4)")
		fhb      = fs.Int("fhb", 0, "override Fetch History Buffer entries (0 = Table 4 default)")
		fw       = fs.Int("fetchwidth", 0, "override fetch width (0 = Table 4 default)")
		lsports  = fs.Int("lsports", 0, "override load/store ports (0 = Table 4 default)")
		list     = fs.Bool("list", false, "list applications and exit")
		disasm   = fs.Bool("disasm", false, "print the application's disassembly and exit")
		equ      = fs.String("equ", "", "override kernel constants, e.g. MOVES=500,TSIZE=256")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory (empty = disabled)")
		timeout  = fs.Duration("timeout", 0, "simulation wall-clock timeout (0 = none)")
		outFile  = fs.String("out", "", "also write the outcome as canonical JSON (the cache/wire encoding) to this file")

		profileOut = fs.String("profile-out", "", "write a per-PC attribution profile (JSON, see prof.SchemaVersion) and print its top sites")
		profileTop = fs.Int("profile-top", 10, "sites in the printed attribution report (0 = all)")

		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline (open in Perfetto); bypasses the result cache")
		eventsOut   = fs.String("events-out", "", "write the raw event stream as JSON lines; bypasses the result cache")
		sampleEvery = fs.Uint64("sample-every", 1000, "cycles between occupancy/IPC samples when tracing (0 = events only)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, expvar and pprof on this address while running")
		precheck    = fs.Bool("precheck", false, "statically analyze the program first (mmtcheck) and refuse to run on error findings")
	)
	flf := addFlightFlags(fs.FlagSet)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if err := validateTimeout(*timeout); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(out, "%-14s %-9s %-4s %s\n", "name", "suite", "mode", "about")
		for _, a := range append(workloads.All(), workloads.MP()...) {
			fmt.Fprintf(out, "%-14s %-9s %-4s %s\n", a.Name, a.Suite, a.Mode, a.About)
		}
		return nil
	}
	if *disasm {
		a, err := sim.TaskSpec{App: *appName}.Workload()
		if err != nil {
			return err
		}
		p, err := asm.Assemble(a.Name, a.Source)
		if err != nil {
			return err
		}
		fmt.Fprint(out, prog.Disassemble(p))
		return nil
	}

	overrides, err := parseEqu(*equ)
	if err != nil {
		return err
	}
	// The knob flags are the wire's configuration override, so they get
	// the range checks mmtserved applies to submissions. Attribution is
	// part of the task key, so a profiled run never collides with an
	// unprofiled cache entry (and vice versa).
	task, err := sim.TaskSpec{App: *appName, Equ: overrides, Preset: sim.Preset(*preset), Threads: *threads,
		Attribution: *profileOut != "",
		Config:      &sim.ConfigOverride{FHBSize: *fhb, FetchWidth: *fw, LSPorts: *lsports}}.Task()
	if err != nil {
		return err
	}
	if *precheck {
		if err := Precheck(task.App); err != nil {
			return err
		}
	}

	reg := obs.NewRegistry()
	stopMetrics, err := serveMetrics(*metricsAddr, reg, os.Stderr)
	if err != nil {
		return err
	}
	defer stopMetrics()
	closeSinks := func() error { return nil }
	if *traceOut != "" || *eventsOut != "" {
		// A traced run must actually simulate: a cache hit would not
		// replay the event stream, so it runs with the cache off.
		task.Trace, closeSinks, err = openTraceSinks(*traceOut, *eventsOut, map[string]string{
			"version": Version(),
			"app":     task.App.Name,
			"preset":  string(task.Preset),
			"threads": strconv.Itoa(task.Threads),
		})
		if err != nil {
			return err
		}
		task.SampleEvery = *sampleEvery
		*cacheDir = ""
	}

	// Even a single simulation goes through the runner, so mmtsim shares
	// mmtbench's persistent cache, timeout and panic isolation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The job's spans ride in flight dumps; a captured worker panic or
	// SIGQUIT dumps the ring to disk.
	tracer := span.NewTracer("mmtsim", 0)
	fl, _, stopDump := flf.build("mmtsim", tracer, os.Stderr)
	defer stopDump()
	pool, err := runner.New(ctx, runner.Options{Workers: 1, CacheDir: *cacheDir, Timeout: *timeout,
		Metrics: reg, Tracer: tracer, Flight: fl, FlightDumpDir: *flf.dumpDir})
	if err != nil {
		closeSinks()
		return err
	}
	defer pool.Close()
	o, err := pool.Do(task)
	if cerr := closeSinks(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := writeOutcome(*outFile, o); err != nil {
		return err
	}
	printResult(out, o.Result)
	prof.PublishCoreStats(reg, o.Result.Stats)
	if *profileOut == "" {
		return nil
	}
	if o.Attribution == nil {
		return fmt.Errorf("outcome has no attribution profile (produced by a pre-profiler build?)")
	}
	return writeProfile(out, *profileOut, o.Attribution, *profileTop)
}

// writeOutcome writes the canonical outcome encoding behind -out; path ""
// disables it.
func writeOutcome(path string, o *sim.Outcome) error {
	if path == "" {
		return nil
	}
	b, err := sim.MarshalOutcome(o)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// parseEqu parses "NAME=VAL,NAME=VAL" override lists; "" overrides
// nothing.
func parseEqu(s string) (map[string]int64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -equ entry %q (want NAME=VALUE)", pair)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -equ value in %q: %v", pair, err)
		}
		out[strings.TrimSpace(name)] = n
	}
	return out, nil
}

func printResult(out io.Writer, r *sim.Result) {
	s := r.Stats
	fmt.Fprintf(out, "%s / %s / %d threads\n\n", r.App, r.Preset, r.Threads)
	fmt.Fprintf(out, "cycles               %12d\n", s.Cycles)
	fmt.Fprintf(out, "committed insts      %12d  (IPC %.3f)\n", s.TotalCommitted(), s.IPC())
	for t := 0; t < r.Threads; t++ {
		fmt.Fprintf(out, "  thread %d           %12d\n", t, s.Committed[t])
	}
	fmt.Fprintf(out, "fetch operations     %12d\n", s.FetchAccesses)
	fmt.Fprintf(out, "executed uops        %12d\n", s.IssuedUops)
	fmt.Fprintf(out, "branches             %12d  (%d mispredicted)\n", s.BranchUops, s.Mispredicts)

	m, d, cu := s.FetchModeFractions()
	fmt.Fprintf(out, "\nfetch modes          MERGE %.1f%%  DETECT %.1f%%  CATCHUP %.1f%%\n", 100*m, 100*d, 100*cu)
	x, xr, f, n := s.IdenticalFractions()
	fmt.Fprintf(out, "commit classes       exec-ident %.1f%%  +regmerge %.1f%%  fetch-ident %.1f%%  not-ident %.1f%%\n",
		100*x, 100*xr, 100*f, 100*n)
	fmt.Fprintf(out, "synchronization      %d divergences, %d remerges, %d catchups (%d aborted)\n",
		s.Divergences, s.Remerges, s.CatchupsStarted, s.CatchupsAborted)
	fmt.Fprintf(out, "                     %.1f%% of remerges within 512 taken branches\n", 100*s.RemergeWithin(512))
	fmt.Fprintf(out, "LVIP                 %d rollbacks\n", s.LVIPRollbacks)
	fmt.Fprintf(out, "register merging     %d compares, %d merges\n", s.RegMergeCompares, s.RegMergeHits)

	fmt.Fprintf(out, "\nmemory               L1I %d  L1D %d  L2 %d  DRAM %d accesses\n",
		r.Mem.L1IAccesses, r.Mem.L1DAccesses, r.Mem.L2Accesses, r.Mem.DRAMAccesses)
	e := r.Energy
	fmt.Fprintf(out, "energy (pJ)          cache %.0f  MMT-overhead %.0f (%.2f%%)  other %.0f\n",
		e.Cache, e.Overhead, 100*e.Overhead/e.Total(), e.Other)
	fmt.Fprintf(out, "energy per job       %.1f pJ/instruction\n", r.EnergyPerJob)
}
