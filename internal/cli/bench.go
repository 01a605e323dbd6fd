package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/prof"
	"mmt/internal/runner"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// Artifacts lists the artifact names RunBench accepts, in output order.
var Artifacts = []string{
	"table3", "fig1", "fig2", "fig5a", "fig5b", "fig5c", "fig5d",
	"fig6", "fig7a", "fig7b", "fig7c", "fig7d",
	"mp", "cosched", "diversity", "scaling", "ablations", "sec63",
}

// RunBench is the mmtbench command: regenerate the evaluation artifacts.
// Artifact output goes to stdout; live progress and the runner summary go
// to stderr, so the report is byte-identical for any -j.
func RunBench(args []string, stdout io.Writer) error {
	_, err := runBench(args, stdout, os.Stderr)
	return err
}

// runBench is RunBench with the progress stream and the runner summary
// exposed for tests.
func runBench(args []string, stdout, progress io.Writer) (runner.Summary, error) {
	fs := flag.NewFlagSet("mmtbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		only     = fs.String("only", "", "comma-separated artifact list: "+strings.Join(Artifacts, ","))
		outFile  = fs.String("out", "", "also write the report to this file")
		jobs     = fs.Int("j", runtime.NumCPU(), "parallel simulation workers")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory (empty = disabled)")
		timeout  = fs.Duration("timeout", 0, "per-simulation wall-clock timeout (0 = none)")
		retries  = fs.Int("retries", 1, "extra attempts for a failed simulation")

		benchJSON     = fs.String("bench-json", "", "write a BENCH_"+strconv.Itoa(BenchSchema)+".json performance artifact (wall time, cycles, IPC, cache hit ratio per experiment); a directory auto-names the file")
		benchCompare  = fs.String("bench-compare", "", "compare two bench-json artifacts: OLD,NEW (runs nothing else)")
		benchFailOver = fs.Float64("bench-fail-over", 0, "with -bench-compare: fail when any experiment's simulated cycles regress by more than this percent (0 = report only)")
		profileOut    = fs.String("profile-out", "", "write the merged per-PC attribution profile across all timing experiments and print its top sites")
		profileTop    = fs.Int("profile-top", 10, "sites in the printed attribution report (0 = all)")

		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runner's workers (open in Perfetto)")
		metricsAddr = fs.String("metrics-addr", "", "serve live runner metrics, expvar and pprof on this address")
		precheck    = fs.Bool("precheck", false, "statically analyze every workload program first (mmtcheck) and refuse to run on error findings")
		version     = fs.Bool("version", false, "print version and exit")
	)
	flf := addFlightFlags(fs)
	if err := fs.Parse(args); err != nil {
		return runner.Summary{}, err
	}
	if *version {
		printVersion(stdout, "mmtbench")
		return runner.Summary{}, nil
	}
	if *benchCompare != "" {
		oldPath, newPath, ok := strings.Cut(*benchCompare, ",")
		if !ok || strings.TrimSpace(oldPath) == "" || strings.TrimSpace(newPath) == "" {
			return runner.Summary{}, fmt.Errorf("-bench-compare wants OLD,NEW (two bench-json files)")
		}
		if *benchFailOver < 0 {
			return runner.Summary{}, fmt.Errorf("-bench-fail-over must be non-negative")
		}
		return runner.Summary{}, BenchCompareGate(stdout, strings.TrimSpace(oldPath), strings.TrimSpace(newPath), *benchFailOver)
	}
	if *benchFailOver != 0 {
		return runner.Summary{}, fmt.Errorf("-bench-fail-over only applies with -bench-compare")
	}
	if err := validateTimeout(*timeout); err != nil {
		return runner.Summary{}, err
	}
	if err := validateRetries(*retries); err != nil {
		return runner.Summary{}, err
	}

	// Validate requested artifact names.
	if *only != "" {
		valid := map[string]bool{}
		for _, a := range Artifacts {
			valid[a] = true
		}
		for _, s := range strings.Split(*only, ",") {
			if s = strings.TrimSpace(s); !valid[s] {
				return runner.Summary{}, fmt.Errorf("unknown artifact %q (valid: %s)", s, strings.Join(Artifacts, ","))
			}
		}
	}

	if *precheck {
		for _, a := range append(workloads.All(), workloads.MP()...) {
			if err := Precheck(a); err != nil {
				return runner.Summary{}, err
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runner.Options{
		Workers:  *jobs,
		CacheDir: *cacheDir,
		Timeout:  *timeout,
		Retries:  *retries,
		Progress: progress,
	}
	if *metricsAddr != "" {
		opts.Metrics = obs.NewRegistry()
		srv, err := serveMetrics(*metricsAddr, opts.Metrics, progress)
		if err != nil {
			return runner.Summary{}, err
		}
		defer srv.Close()
	}
	jt, err := openJobTrace(*traceOut, "mmtbench runner",
		map[string]string{"version": Version(), "workers": strconv.Itoa(*jobs)})
	if err != nil {
		return runner.Summary{}, err
	}
	// Every job's spans feed the always-on flight ring (and -trace-out); a
	// captured worker panic or SIGQUIT dumps the ring to disk.
	opts.Tracer = span.NewTracer("mmtbench", 0)
	opts.Flight, _ = flf.build("mmtbench", opts.Tracer, jt.observe, progress)
	opts.FlightDumpDir = *flf.dumpDir
	// -bench-json and -profile-out observe the experiment stream through a
	// wrapping executor; its completion hook must be installed before the
	// pool exists.
	var bx *benchExec
	if *benchJSON != "" || *profileOut != "" {
		bx = newBenchExec(nil, *profileOut != "")
		opts.OnComplete = bx.complete
	}
	pool, err := runner.New(ctx, opts)
	if err != nil {
		jt.Close()
		return runner.Summary{}, err
	}
	var ex sim.Exec = pool
	if bx != nil {
		bx.inner = pool
		ex = bx
	}

	err = writeReport(ex, stdout, *only, *outFile)
	pool.Close()
	if cerr := jt.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil && bx != nil {
		err = emitBenchArtifacts(stdout, bx, *benchJSON, *profileOut, *profileTop)
	}
	s := pool.Summary()
	if progress != nil && s.Jobs > 0 {
		fmt.Fprint(progress, s.Format())
	}
	return s, err
}

// emitBenchArtifacts writes the -bench-json file and the merged
// attribution profile after a successful artifact run.
func emitBenchArtifacts(stdout io.Writer, bx *benchExec, benchJSON, profileOut string, profileTop int) error {
	if benchJSON != "" {
		if err := writeBenchJSON(benchJSON, bx.file()); err != nil {
			return err
		}
	}
	if profileOut == "" {
		return nil
	}
	p := bx.mergedProfile()
	if p == nil {
		return fmt.Errorf("no attributed timing experiment ran; nothing behind -profile-out")
	}
	b, err := p.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(profileOut, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return prof.WriteReport(stdout, p, profileTop)
}

// writeReport renders the requested artifacts through the executor. The
// returned error includes any failure to flush or close the -out file —
// a silently truncated report would otherwise look like a clean run.
func writeReport(ex sim.Exec, stdout io.Writer, only, outFile string) (err error) {
	var w io.Writer = stdout
	if outFile != "" {
		f, cerr := os.Create(outFile)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", outFile, cerr)
			}
		}()
		w = io.MultiWriter(stdout, f)
	}
	return renderArtifacts(ex, w, only)
}

// renderArtifacts runs every requested artifact in presentation order.
func renderArtifacts(ex sim.Exec, w io.Writer, only string) error {
	want := func(name string) bool {
		if only == "" {
			return true
		}
		for _, s := range strings.Split(only, ",") {
			if strings.TrimSpace(s) == name {
				return true
			}
		}
		return false
	}

	apps := workloads.All()

	if want("table3") {
		h := core.EstimateHWCost(core.DefaultConfig(4))
		fmt.Fprintf(w, "Table 3: MMT hardware cost estimate\n------------------------------------\n%s\n\n", h)
	}
	if want("fig1") {
		rows, err := sim.Figure1(ex, apps, 1_000_000)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig1(rows))
	}
	if want("fig2") {
		rows, err := sim.Figure2(ex, apps, 1_000_000)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig2(rows))
	}
	if want("fig5a") {
		rows, gm, err := sim.Figure5Speedups(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig5(rows, gm, 2))
	}
	if want("fig5b") {
		rows, err := sim.Figure5b(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig5b(rows))
	}
	if want("fig5c") {
		rows, gm, err := sim.Figure5Speedups(ex, apps, 4)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig5(rows, gm, 4))
	}
	if want("fig5d") {
		rows, err := sim.Figure5d(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig5d(rows))
	}
	if want("fig6") {
		rows, err := sim.Figure6(ex, apps)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig6(rows))
	}
	if want("fig7a") {
		rows, err := sim.Figure7a(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig7a(rows))
	}
	if want("fig7b") {
		sp, err := sim.Figure7b(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatSweep("Figure 7(b): geomean speedup vs load/store ports", sim.LSPortCounts, sp))
	}
	if want("fig7c") {
		rows, err := sim.Figure7c(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatFig7c(rows))
	}
	if want("fig7d") {
		sp, err := sim.Figure7d(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatSweep("Figure 7(d): geomean speedup vs fetch width", sim.FetchWidths, sp))
	}
	if want("mp") {
		rows, err := sim.ExtensionMP(ex)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatMP(rows))
	}
	if want("cosched") {
		rows, err := sim.ExtensionCoschedule(ex)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatCoschedule(rows))
	}
	if want("diversity") {
		rows, err := sim.ExtensionDiversity(ex)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatDiversity(rows))
	}
	if want("scaling") {
		rows, err := sim.ExtensionScaling(ex, apps)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, sim.FormatScaling(rows))
	}
	if want("ablations") {
		type study struct {
			title string
			names []string
			run   func() ([]sim.AblationRow, []float64, error)
		}
		for _, s := range []study{
			{"Ablation: remerge mechanism (MMT-FXR, 2T)", sim.SyncPolicyNames,
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationSyncPolicy(ex, apps, 2) }},
			{"Ablation: load-value-identical policy (MMT-FXR, 2T)", sim.LVIPModeNames,
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationLVIP(ex, apps, 2) }},
			{"Ablation: CATCHUP ahead-thread duty cycle (MMT-FXR, 2T)", dutyNames(),
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationAheadDuty(ex, apps, 2) }},
			{"Ablation: register-merge read ports (MMT-FXR, 2T)", portNames(),
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationRegMergePorts(ex, apps, 2) }},
			{"Ablation (§5 claim): machine scale — gains grow as the core shrinks", sim.MachineScaleNames,
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationMachineScale(ex, apps, 2) }},
			{"Ablation (§5 claim): trace cache on/off — near-identical results", sim.TraceCacheNames,
				func() ([]sim.AblationRow, []float64, error) { return sim.AblationTraceCache(ex, apps, 2) }},
		} {
			rows, gms, err := s.run()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, sim.FormatAblation(s.title, s.names, rows, gms))
		}
	}
	if want("sec63") {
		m, err := sim.RemergeWithin512(ex, apps, 2)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Section 6.3: remerges found within 512 taken branches")
		fmt.Fprintln(w, "-----------------------------------------------------")
		var total float64
		n := 0
		for _, a := range apps {
			if v, ok := m[a.Name]; ok {
				fmt.Fprintf(w, "%-14s %6.1f%%\n", a.Name, 100*v)
				total += v
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, "%-14s %6.1f%%\n\n", "average", 100*total/float64(n))
		}
	}
	return nil
}

func dutyNames() []string {
	var out []string
	for _, d := range sim.AheadDuties {
		if d == 0 {
			out = append(out, "gated")
		} else {
			out = append(out, fmt.Sprintf("1/%d", d))
		}
	}
	return out
}

func portNames() []string {
	var out []string
	for _, p := range sim.RegMergePortCounts {
		out = append(out, fmt.Sprintf("%d ports", p))
	}
	return out
}
