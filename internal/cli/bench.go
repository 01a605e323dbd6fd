package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/runner"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

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
	fs := newFlags("mmtbench", stdout)
	rf := addRunnerFlags(fs.FlagSet)
	var (
		only    = fs.String("only", "", "comma-separated artifact list: "+strings.Join(artifactNames(), ","))
		outFile = fs.String("out", "", "also write the report to this file")

		benchJSON     = fs.String("bench-json", "", "write a BENCH_"+strconv.Itoa(BenchSchema)+".json performance artifact (wall time, cycles, IPC, cache hit ratio per experiment); a directory auto-names the file")
		benchCompare  = fs.String("bench-compare", "", "compare two bench-json artifacts: OLD,NEW (runs nothing else)")
		benchFailOver = fs.Float64("bench-fail-over", 0, "with -bench-compare: fail when any experiment's simulated cycles regress by more than this percent (0 = report only)")
		profileOut    = fs.String("profile-out", "", "write the merged per-PC attribution profile across all timing experiments and print its top sites")
		profileTop    = fs.Int("profile-top", 10, "sites in the printed attribution report (0 = all)")

		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runner's workers (open in Perfetto)")
		metricsAddr = fs.String("metrics-addr", "", "serve live runner metrics, expvar and pprof on this address")
		precheck    = fs.Bool("precheck", false, "statically analyze every workload program first (mmtcheck) and refuse to run on error findings")
	)
	flf := addFlightFlags(fs.FlagSet)
	if done, err := fs.parse(args); done || err != nil {
		return runner.Summary{}, err
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
	opts, err := rf.options(progress)
	if err != nil {
		return runner.Summary{}, err
	}
	want, err := pickArtifacts(*only)
	if err != nil {
		return runner.Summary{}, err
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
	opts.Metrics = obs.NewRegistry()
	stopMetrics, err := serveMetrics(*metricsAddr, opts.Metrics, progress)
	if err != nil {
		return runner.Summary{}, err
	}
	defer stopMetrics()
	jt, err := openJobTrace(*traceOut, "mmtbench runner",
		map[string]string{"version": Version(), "workers": strconv.Itoa(opts.Workers)})
	if err != nil {
		return runner.Summary{}, err
	}
	// Every job's spans stream to -trace-out and ride in flight dumps; a
	// captured worker panic or SIGQUIT dumps the ring to disk.
	opts.Tracer = span.NewTracer("mmtbench", 0)
	opts.Tracer.SetObserver(jt.observe)
	var stopDump func()
	opts.Flight, _, stopDump = flf.build("mmtbench", opts.Tracer, progress)
	defer stopDump()
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

	err = writeReport(ex, stdout, want, *outFile)
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
	return writeProfile(stdout, profileOut, p, profileTop)
}

// writeReport renders the wanted artifacts through the executor. The
// returned error includes any failure to flush or close the -out file —
// a silently truncated report would otherwise look like a clean run.
func writeReport(ex sim.Exec, stdout io.Writer, want map[string]bool, outFile string) (err error) {
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
	apps := workloads.All()
	for _, a := range Artifacts {
		if !want[a.Name] {
			continue
		}
		s, err := a.render(ex, apps)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, s)
	}
	return nil
}

// Artifact is one section of the mmtbench report: its -only name, and
// the function that simulates and formats it.
type Artifact struct {
	Name   string
	render renderFunc
}

// renderFunc simulates one artifact's points through ex and formats them.
type renderFunc func(ex sim.Exec, apps []workloads.App) (string, error)

// Artifacts is the mmtbench report, in output order.
var Artifacts = []Artifact{
	{"table3", func(sim.Exec, []workloads.App) (string, error) {
		h := core.EstimateHWCost(core.DefaultConfig(4))
		return fmt.Sprintf("Table 3: MMT hardware cost estimate\n------------------------------------\n%s\n", h), nil
	}},
	{"fig1", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig1)(sim.Figure1(ex, apps, 1_000_000))
	}},
	{"fig2", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig2)(sim.Figure2(ex, apps, 1_000_000))
	}},
	{"fig5a", fig5(2)},
	{"fig5b", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig5b)(sim.Figure5b(ex, apps, 2))
	}},
	{"fig5c", fig5(4)},
	{"fig5d", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig5d)(sim.Figure5d(ex, apps, 2))
	}},
	{"fig6", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig6)(sim.Figure6(ex, apps))
	}},
	{"fig7a", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig7a)(sim.Figure7a(ex, apps, 2))
	}},
	{"fig7b", sweep("Figure 7(b): geomean speedup vs load/store ports", sim.LSPortCounts, sim.Figure7b)},
	{"fig7c", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatFig7c)(sim.Figure7c(ex, apps, 2))
	}},
	{"fig7d", sweep("Figure 7(d): geomean speedup vs fetch width", sim.FetchWidths, sim.Figure7d)},
	{"mp", func(ex sim.Exec, _ []workloads.App) (string, error) {
		return show(sim.FormatMP)(sim.ExtensionMP(ex))
	}},
	{"cosched", func(ex sim.Exec, _ []workloads.App) (string, error) {
		return show(sim.FormatCoschedule)(sim.ExtensionCoschedule(ex))
	}},
	{"diversity", func(ex sim.Exec, _ []workloads.App) (string, error) {
		return show(sim.FormatDiversity)(sim.ExtensionDiversity(ex))
	}},
	{"scaling", func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(sim.FormatScaling)(sim.ExtensionScaling(ex, apps))
	}},
	{"ablations", func(ex sim.Exec, apps []workloads.App) (string, error) {
		var parts []string
		for _, s := range []struct {
			title string
			names []string
			run   func(sim.Exec, []workloads.App, int) ([]sim.AblationRow, []float64, error)
		}{
			{"Ablation: remerge mechanism (MMT-FXR, 2T)", sim.SyncPolicyNames, sim.AblationSyncPolicy},
			{"Ablation: load-value-identical policy (MMT-FXR, 2T)", sim.LVIPModeNames, sim.AblationLVIP},
			{"Ablation: CATCHUP ahead-thread duty cycle (MMT-FXR, 2T)", dutyNames(), sim.AblationAheadDuty},
			{"Ablation: register-merge read ports (MMT-FXR, 2T)", portNames(), sim.AblationRegMergePorts},
			{"Ablation (§5 claim): machine scale — gains grow as the core shrinks", sim.MachineScaleNames, sim.AblationMachineScale},
			{"Ablation (§5 claim): trace cache on/off — near-identical results", sim.TraceCacheNames, sim.AblationTraceCache},
		} {
			rows, gms, err := s.run(ex, apps, 2)
			if err != nil {
				return "", err
			}
			parts = append(parts, sim.FormatAblation(s.title, s.names, rows, gms))
		}
		return strings.Join(parts, "\n"), nil
	}},
	{"sec63", func(ex sim.Exec, apps []workloads.App) (string, error) {
		m, err := sim.RemergeWithin512(ex, apps, 2)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("Section 6.3: remerges found within 512 taken branches\n")
		b.WriteString("-----------------------------------------------------")
		var total float64
		n := 0
		for _, a := range apps {
			if v, ok := m[a.Name]; ok {
				fmt.Fprintf(&b, "\n%-14s %6.1f%%", a.Name, 100*v)
				total += v
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(&b, "\n%-14s %6.1f%%\n", "average", 100*total/float64(n))
		}
		return b.String(), nil
	}},
}

// show formats an experiment's rows, or passes its error through.
func show[R any](format func(R) string) func(R, error) (string, error) {
	return func(rows R, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(rows), nil
	}
}

// fig5 renders Fig. 5(a) or 5(c): speedups over Base at threads.
func fig5(threads int) renderFunc {
	return func(ex sim.Exec, apps []workloads.App) (string, error) {
		rows, gm, err := sim.Figure5Speedups(ex, apps, threads)
		if err != nil {
			return "", err
		}
		return sim.FormatFig5(rows, gm, threads), nil
	}
}

// sweep renders one Fig. 7 configuration sweep at 2 threads.
func sweep(title string, points []int, run func(sim.Exec, []workloads.App, int) ([]float64, error)) renderFunc {
	return func(ex sim.Exec, apps []workloads.App) (string, error) {
		return show(func(sp []float64) string { return sim.FormatSweep(title, points, sp) })(run(ex, apps, 2))
	}
}

// artifactNames lists the artifacts' -only names in output order.
func artifactNames() []string {
	names := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		names[i] = a.Name
	}
	return names
}

// pickArtifacts resolves -only into the set of artifacts to render; ""
// selects them all.
func pickArtifacts(only string) (map[string]bool, error) {
	names := artifactNames()
	if only == "" {
		only = strings.Join(names, ",")
	}
	want := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		if s = strings.TrimSpace(s); !slices.Contains(names, s) {
			return nil, fmt.Errorf("unknown artifact %q (valid: %s)", s, strings.Join(names, ","))
		}
		want[s] = true
	}
	return want, nil
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
