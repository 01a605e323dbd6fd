// Command mmtperf measures the MMT simulator end to end and per layer on
// four named workloads. Each invocation runs one workload in its own
// process for a fixed time window, checks every output against a
// reference, and prints each metric as "name value unit"; the last line
// of standard output is a JSON result:
//
//	bash bench/run.sh --workload core-mmt --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it alternates untraced and traced passes and prints the
// per-layer metrics and self-time table instead of the end-to-end ones.
// -json appends a record carrying a host fingerprint to a file, and
// -compare A,B compares two such files. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// A run times setupRuns set-ups before its first pass and keeps the last
// for the passes; setup_s is their median. A set-up takes 1-4 ms, and
// the first in a process is the slowest; the median of fifteen is steady
// where one sample or the median of five is not.
const setupRuns = 15

// config is one invocation's settings. The fields after root are test
// hooks that shrink a workload; their zero values select the full size.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	root     string // directory holding the BENCH_<n>.json reference

	apps   int        // core-* and serve-fleet: use the first n applications
	passes int        // run exactly this many passes instead of filling the window
	jobs   int        // serve-fleet: jobs per pass
	only   string     // paper-eval: mmtbench artifact list
	ref    *reference // replaces the reference loaded from root
}

// A rig runs one workload's passes. Every pass does the same work (up
// to the seed-chosen order), so per-pass numbers are comparable.
type rig interface {
	// pass runs one pass and returns the stretch it measured.
	pass(b *bench, traced bool) (interval, error)
	// verify runs the checks that follow the measured window.
	verify(b *bench) error
	// close releases what set-up acquired.
	close() error
}

// A workload names one set of inputs; setup builds its rig.
type workload struct {
	why   string
	setup func(b *bench) (rig, error)
}

var workloadTable = map[string]workload{
	"paper-eval":  {"the mmtbench code path users run: pool parallelism, all presets, the FHB sweep and trace-alignment profiles", setupPaper},
	"core-mmt":    {"serial MMT-FXR simulation: the merge machinery (FHB, RST, split, LVIP, register merging) at work", setupCore(sim.PresetMMTFXR)},
	"core-base":   {"the same tasks under Base: merging off, so merge-path changes must leave it unchanged", setupCore(sim.PresetBase)},
	"serve-fleet": {"mmtdse's halving study through router -> serve -> runner cache -> codec, two evaluations in flight", setupFleet},
}

func workloadNames() []string {
	var names []string
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmtperf:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mmtperf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measured window in seconds")
		trace   = fs.Int("trace", 0, "1 runs traced passes and reports per-layer metrics")
		jsonOut = fs.String("json", "", "append this run's record (with host fingerprint) to the file")
		spans   = fs.String("spans", "", "with -trace 1: write the spans as JSON lines to the file")
		compare = fs.String("compare", "", "A.json,B.json: compare two record files and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok || a == "" || b == "" {
			return fmt.Errorf("-compare wants A.json,B.json")
		}
		return compareFiles(stdout, a, b, "BENCHMARK.json")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     ".",
	}
	rec, err := run(cfg, stdout)
	if err != nil {
		return err
	}
	if *spans != "" && rec.spans != nil {
		if err := rec.spans.writeJSONL(*spans); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			return err
		}
	}
	return printResult(stdout, rec)
}

// run executes one workload: set-up, passes until the window is spent,
// then the post-window verification.
func run(cfg config, stdout io.Writer) (*record, error) {
	w, ok := workloadTable[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	b := &bench{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), probe: startProbe()}
	defer b.probe.close()
	if cfg.trace {
		b.spans = &spanLog{epoch: time.Now()}
	}
	var d rig
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = b.setUp(w); err != nil {
			return nil, err
		}
	}
	err := b.runPasses(d)
	if err == nil {
		err = d.verify(b)
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rec := b.record(w.why)
	printHuman(stdout, rec)
	return rec, nil
}

// setUp times one set-up of w.
func (b *bench) setUp(w workload) (rig, error) {
	runtime.GC() // a collection owed by earlier work is not this set-up's
	t0 := time.Now()
	d, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", b.cfg.workload, err)
	}
	b.noteSetup(t0)
	return d, nil
}

// runPasses fills the window with whole passes of d. A traced run
// alternates untraced and traced passes, so the tracing overhead is
// measured in the same process; it always runs at least one of each.
func (b *bench) runPasses(d rig) error {
	minPasses := 1
	if b.cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if b.cfg.passes > 0 {
			if i >= b.cfg.passes {
				break
			}
		} else if i >= minPasses && time.Since(start) >= b.cfg.window {
			break
		}
		traced := b.cfg.trace && i%2 == 1
		b.beginPass(traced)
		iv, err := d.pass(b, traced)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		b.endPass(iv)
	}
	return nil
}

// printResult writes the final JSON line.
func printResult(w io.Writer, rec *record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed + rec.Wrong, map[string]value{}}
	for _, m := range rec.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appsFor returns the applications a workload uses (all 16 unless a test
// shrinks it).
func (b *bench) appsFor() []workloads.App {
	apps := workloads.All()
	if b.cfg.apps > 0 && b.cfg.apps < len(apps) {
		apps = apps[:b.cfg.apps]
	}
	return apps
}
