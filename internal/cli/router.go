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

// RunRouter is the mmtrouter command: the fleet coordinator that
// consistent-hashes job submissions onto a ring of mmtserved backends so
// per-node single-flight dedup becomes fleet-wide dedup. It serves the
// same /v1 job API as mmtserved until SIGINT/SIGTERM, then exits.
func RunRouter(args []string, stdout io.Writer) error {
	return runRouter(args, stdout, os.Stderr, nil)
}

// runRouter is RunRouter with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runRouter(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("mmtrouter", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "127.0.0.1:8378", "listen address for the fleet job API")
		backends = fs.String("backends", "", "comma-separated mmtserved base URLs, each with an optional *weight suffix (e.g. http://10.0.0.1:8377*2,http://10.0.0.2:8377)")

		probeEvery   = fs.Duration("probe-every", time.Second, "health/queue-depth probe cadence")
		probeTimeout = fs.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		stealAt      = fs.Int("steal-threshold", 8, "queue depth at which an owner counts as hot and idle nodes pull its new keys")
		stealMax     = fs.Int("steal-max", 1, "maximum queue depth of a steal target")
		placementTTL = fs.Duration("placement-ttl", 5*time.Minute, "how long a key stays pinned to the node that received it")

		metricsAddr = fs.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address")
		version     = fs.Bool("version", false, "print version and exit")
	)
	logf := addLogFlags(fs)
	dbg := addDebugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		printVersion(stdout, "mmtrouter")
		return nil
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	if *backends == "" {
		return errors.New("-backends is required (comma-separated mmtserved URLs)")
	}
	nodes, err := cluster.ParseNodes(*backends)
	if err != nil {
		return err
	}

	opts := cluster.RouterOptions{
		Nodes:          nodes,
		ProbeEvery:     *probeEvery,
		ProbeTimeout:   *probeTimeout,
		StealThreshold: *stealAt,
		StealMax:       *stealMax,
		PlacementTTL:   *placementTTL,
	}
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
	// Bind before constructing the router: the tracer's service label
	// carries the resolved address, matching the nodes' span rings.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	service := "mmtrouter@" + ln.Addr().String()
	opts.Tracer = span.NewTracer(service, span.DefaultCapacity)
	st := dbg.build(service, fs, opts.Metrics, opts.Tracer, nil, logger, progress)
	defer st.Close()
	logger = st.Wrap(logger)
	opts.Log = logger.With("service", "mmtrouter")
	opts.Flight = st.Flight
	opts.Debug = st.Handler
	rt, err := cluster.NewRouter(opts)
	if err != nil {
		ln.Close()
		return err
	}
	defer rt.Close()
	httpSrv := &http.Server{Handler: rt}
	if progress != nil {
		fmt.Fprintf(progress, "mmtrouter %s routing on http://%s/v1 across %d backends\n",
			Version(), ln.Addr(), len(nodes))
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
			fmt.Fprintf(progress, "mmtrouter: received %s, shutting down\n", sig)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(sctx) //nolint:errcheck // in-flight proxies get a bounded wait
		scancel()
		if progress != nil {
			fmt.Fprintln(progress, "mmtrouter: drained, bye")
		}
		return nil
	}
}
