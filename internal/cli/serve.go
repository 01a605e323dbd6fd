package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/runner"
	"mmt/internal/serve"
)

// RunServe is the mmtserved command: the simulation-as-a-service daemon.
// It serves the /v1 job API until SIGINT/SIGTERM, then drains — stops
// admitting, finishes in-flight jobs (bounded by -drain-timeout) — and
// exits; a second signal aborts the drain.
func RunServe(args []string, stdout io.Writer) error {
	return runServe(args, stdout, os.Stderr, nil)
}

// runServe is RunServe with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runServe(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtserved", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "127.0.0.1:8377", "listen address for the job API")
		jobs     = fs.Int("j", runtime.NumCPU(), "parallel simulation workers")
		cacheDir = fs.String("cache-dir", "", "persistent result cache directory (empty = disabled)")
		cacheMax = fs.Int64("cache-max-bytes", 0, "persistent cache byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
		remote   = fs.String("remote-cache", "", "mmtcached base URL the persistent cache tiers into, e.g. http://127.0.0.1:8380 (empty = disabled)")
		timeout  = fs.Duration("timeout", 0, "per-simulation wall-clock timeout (0 = none)")
		retries  = fs.Int("retries", 1, "extra attempts for a failed simulation")

		queue        = fs.Int("queue", 64, "admission queue capacity; beyond it submissions get 429 + Retry-After")
		precheck     = fs.Bool("precheck", false, "statically analyze submitted programs and reject error findings with 400 (see mmtcheck)")
		deadline     = fs.Duration("deadline", 0, "default queued-deadline for submissions that carry none (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "how long a signal-triggered drain waits for in-flight jobs")

		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runner's workers (open in Perfetto)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address")
		version     = fs.Bool("version", false, "print version and exit")
	)
	logf := addLogFlags(fs)
	dbg := addDebugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		printVersion(stdout, "mmtserved")
		return nil
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	if err := validateTimeout(*timeout); err != nil {
		return err
	}
	if err := validateRetries(*retries); err != nil {
		return err
	}

	// rootCtx is the pool's hard-abort context: canceled when the drain
	// deadline expires or a second signal arrives.
	rootCtx, abort := context.WithCancel(context.Background())
	defer abort()

	opts := serve.Options{
		Runner: runner.Options{
			Workers:       *jobs,
			CacheDir:      *cacheDir,
			CacheMaxBytes: *cacheMax,
			Timeout:       *timeout,
			Retries:       *retries,
			Progress:      progress,
		},
		MaxQueue:        *queue,
		DefaultDeadline: *deadline,
		Precheck:        *precheck,
	}
	if *remote != "" {
		opts.Runner.RemoteCache = cluster.NewCacheClient(*remote, nil)
	}
	// The registry always exists: /metrics rides the main port for
	// mmtdoctor, and -metrics-addr additionally serves it with expvar and
	// pprof on a side port.
	opts.Metrics = obs.NewRegistry()
	if *metricsAddr != "" {
		msrv, err := serveMetrics(*metricsAddr, opts.Metrics, progress)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}
	jt, err := openJobTrace(*traceOut, "mmtserved runner",
		map[string]string{"version": Version(), "workers": strconv.Itoa(*jobs)})
	if err != nil {
		return err
	}

	// Bind before constructing the server: the tracer's service label
	// carries the resolved address, so a stitched fleet waterfall names
	// the node each span ran on.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		jt.Close()
		return err
	}
	service := "mmtserved@" + ln.Addr().String()
	opts.Tracer = span.NewTracer(service, span.DefaultCapacity)
	// The diagnostics stack: flight ring (fed admission/completion edges,
	// log lines and every finished span, which also stream to -trace-out),
	// continuous profiler, metrics history, SIGQUIT dump.
	st := dbg.build(service, fs, opts.Metrics, opts.Tracer, jt.observe, logger, progress)
	defer st.Close()
	logger = st.Wrap(logger)
	opts.Log = logger.With("service", "mmtserved")
	opts.Flight = st.Flight
	opts.Debug = st.Handler
	opts.Runner.FlightDumpDir = st.DumpDir

	srv, err := serve.New(rootCtx, opts)
	if err != nil {
		ln.Close()
		jt.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	if progress != nil {
		fmt.Fprintf(progress, "mmtserved %s serving on http://%s/v1 (%d workers, queue %d)\n",
			Version(), ln.Addr(), srv.Pool().Summary().Workers, *queue)
		st.announce(progress, ln.Addr().String())
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case err := <-serveErr:
		srv.Close()
		jt.Close()
		return err
	case sig := <-sigc:
		if progress != nil {
			fmt.Fprintf(progress, "mmtserved: received %s, draining (timeout %s; signal again to abort)\n", sig, *drainTimeout)
		}
		go func() {
			<-sigc // second signal: abort in-flight simulations
			abort()
		}()
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		derr := srv.Drain(dctx)
		dcancel()
		if derr != nil {
			if progress != nil {
				fmt.Fprintf(progress, "mmtserved: %v; aborting\n", derr)
			}
			abort()
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(sctx) //nolint:errcheck // drain already bounded the wait
		scancel()
		srv.Close()
		if cerr := jt.Close(); cerr != nil && derr == nil {
			derr = cerr
		}
		if progress != nil {
			s := srv.Pool().Summary()
			if s.Jobs > 0 {
				fmt.Fprint(progress, s.Format())
			}
			fmt.Fprintln(progress, "mmtserved: drained, bye")
		}
		return derr
	}
}
