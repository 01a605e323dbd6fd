package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"mmt/internal/dse"
	"mmt/internal/obs"
	"mmt/internal/runner"
	"mmt/internal/workloads"
)

// RunDSE is the mmtdse command: explore the MMT configuration space and
// write a Pareto study artifact. The artifact goes to -out (or stdout);
// progress streams to stderr so the artifact bytes stay identical across
// worker counts and backends.
func RunDSE(args []string, stdout io.Writer) error {
	return runDSE(args, stdout, os.Stderr)
}

// runDSE is RunDSE with the progress stream exposed for tests.
func runDSE(args []string, stdout, progress io.Writer) error {
	fs := newFlags("mmtdse", stdout)
	var (
		space = fs.String("space", "default", "search space: a builtin ("+
			strings.Join(dse.Builtins(), ", ")+") or a JSON spec file")
		seed      = fs.Uint64("seed", 1, "sampler seed (same spec+seed = same study, byte for byte)")
		budget    = fs.Int("budget", 0, "max (point,rung) evaluations (0 = unbounded)")
		workloadL = fs.String("workloads", "", "comma-separated workload subset (default: the space's list, else all "+
			fmt.Sprint(len(workloads.Names()))+" kernels)")
		server      = fs.String("server", "", "evaluate on this mmtserved/mmtrouter base URL instead of in-process")
		out         = fs.String("out", "", "study artifact path (also the resume checkpoint; empty = stdout, no checkpoints)")
		resume      = fs.String("resume", "", "reuse results from this prior (partial or complete) study artifact")
		render      = fs.String("render", "", "render the frontier table of an existing study artifact and exit")
		jobs        = fs.Int("j", runtime.NumCPU(), "parallel evaluations (local backend also sizes its worker pool)")
		cacheDir    = fs.String("cache-dir", "", "persistent result cache directory for the local backend (empty = disabled)")
		metricsAddr = fs.String("metrics-addr", "", "serve live mmt_dse_* metrics, expvar and pprof on this address")
		rank        = fs.String("rank", "", "override the space's static ranker: on orders rung 0 by the absint cost model, off disables it (default: the space decides)")
	)
	logf := addLogFlags(fs.FlagSet)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	if *render != "" {
		st, err := dse.LoadStudy(*render)
		if err != nil {
			return err
		}
		st.WriteFrontier(stdout)
		return nil
	}

	spec, err := dse.LoadSpec(*space)
	if err != nil {
		return err
	}
	var appList []string
	if *workloadL != "" {
		for _, name := range strings.Split(*workloadL, ",") {
			name = strings.TrimSpace(name)
			if _, ok := workloads.ByName(name); !ok {
				return fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloads.Names(), ", "))
			}
			appList = append(appList, name)
		}
	}
	if *jobs < 1 {
		return fmt.Errorf("-j must be at least 1")
	}
	if *budget < 0 {
		return fmt.Errorf("-budget must be non-negative")
	}
	switch *rank {
	case "":
	case "on", "off":
		spec.Rank = *rank == "on"
	default:
		return fmt.Errorf("-rank must be on or off (got %q)", *rank)
	}

	opts := dse.Options{
		Spec:           spec,
		Seed:           *seed,
		Budget:         *budget,
		Workloads:      appList,
		Concurrency:    *jobs,
		Progress:       progress,
		Log:            logger.With("service", "mmtdse"),
		CheckpointPath: *out,
		Metrics:        obs.NewRegistry(),
	}
	stopMetrics, err := serveMetrics(*metricsAddr, opts.Metrics, progress)
	if err != nil {
		return err
	}
	defer stopMetrics()
	if *resume != "" {
		prior, err := dse.LoadStudy(*resume)
		if err != nil {
			return fmt.Errorf("loading resume study: %w", err)
		}
		opts.Resume = prior
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *server != "" {
		if *cacheDir != "" {
			return fmt.Errorf("-cache-dir only applies to the local backend (the server has its own cache)")
		}
		opts.Backend = dse.NewServerBackend(*server)
	} else {
		be, err := dse.NewLocalBackend(ctx, runner.Options{
			Workers:  *jobs,
			CacheDir: *cacheDir,
			Retries:  1,
			Progress: progress,
			Metrics:  opts.Metrics,
		})
		if err != nil {
			return err
		}
		defer be.Close()
		opts.Backend = be
	}

	st, err := dse.Search(ctx, opts)
	if err != nil {
		return err
	}
	if *out == "" {
		b, err := dse.MarshalStudy(st)
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
	} else {
		// Search already checkpointed the final artifact to -out.
		fmt.Fprintf(progress, "dse: study written to %s\n", *out)
	}
	st.WriteFrontier(progress)
	return nil
}
