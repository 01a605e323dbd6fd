package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
)

// RunCached is the mmtcached command: the content-addressed remote result
// cache the fleet's persistent caches tier into. It serves the /v1/cache
// API until SIGINT/SIGTERM, then exits; entries live on disk, so restarts
// are warm.
func RunCached(args []string, stdout io.Writer) error {
	return runCached(args, stdout, os.Stderr, nil)
}

// runCached is RunCached with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runCached(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtcached", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr        = fs.String("addr", "127.0.0.1:8380", "listen address for the cache API")
		dir         = fs.String("dir", "", "entry directory (required)")
		maxBytes    = fs.Int64("max-bytes", 0, "byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address")
		version     = fs.Bool("version", false, "print version and exit")
	)
	logf := addLogFlags(fs)
	dbg := addDebugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		printVersion(stdout, "mmtcached")
		return nil
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required (entry directory)")
	}

	opts := cluster.CacheServerOptions{Dir: *dir, MaxBytes: *maxBytes}
	// The registry always exists: /metrics rides the main port for
	// mmtdoctor, and -metrics-addr additionally serves it on a side port.
	opts.Metrics = obs.NewRegistry()
	if *metricsAddr != "" {
		msrv, err := serveMetrics(*metricsAddr, opts.Metrics, progress)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}
	// Bind before constructing the server: the tracer's service label
	// carries the resolved address, matching the rest of the fleet.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	service := "mmtcached@" + ln.Addr().String()
	opts.Tracer = span.NewTracer(service, span.DefaultCapacity)
	st := dbg.build(service, fs, opts.Metrics, opts.Tracer, nil, logger, progress)
	defer st.Close()
	logger = st.Wrap(logger)
	opts.Log = logger.With("service", "mmtcached")
	opts.Flight = st.Flight
	opts.Debug = st.Handler
	srv, err := cluster.NewCacheServer(opts)
	if err != nil {
		ln.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	if progress != nil {
		fmt.Fprintf(progress, "mmtcached %s serving on http://%s/v1/cache (%d entries, %d bytes)\n",
			Version(), ln.Addr(), srv.Store().Len(), srv.Store().Bytes())
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
		return err
	case sig := <-sigc:
		if progress != nil {
			fmt.Fprintf(progress, "mmtcached: received %s, shutting down\n", sig)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(sctx) //nolint:errcheck // bounded wait for in-flight puts
		scancel()
		if progress != nil {
			fmt.Fprintf(progress, "mmtcached: %d entries, %d bytes on disk; bye\n",
				srv.Store().Len(), srv.Store().Bytes())
		}
		return nil
	}
}
