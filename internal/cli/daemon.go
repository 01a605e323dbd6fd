package cli

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
)

// daemon is the scaffold the three long-running servers (mmtserved,
// mmtrouter, mmtcached) share: their common flags, and one lifecycle from
// binding the port to the last progress line after a signal.
type daemon struct {
	*flags
	addr        *string
	metricsAddr *string
	log         logOptions
	flight      flightOptions

	progress io.Writer    // set by parse; never nil
	logger   *slog.Logger // set by parse
}

// newDaemon returns the daemon's flag set with the shared flags
// registered: -addr (defaulting to addr), -metrics-addr, the log flags
// and -flight-dump-dir. Usage goes to stdout.
func newDaemon(name string, stdout io.Writer, addr, addrHelp string) *daemon {
	fs := newFlags(name, stdout)
	return &daemon{
		flags:       fs,
		addr:        fs.String("addr", addr, addrHelp),
		metricsAddr: fs.String("metrics-addr", "", "serve live metrics, expvar and pprof on this address"),
		log:         addLogFlags(fs.FlagSet),
		flight:      addFlightFlags(fs.FlagSet),
	}
}

// parse parses args and builds the logger, which writes to progress —
// the daemon's progress stream, so stdout stays reserved for results.
// done reports that -version was answered.
func (d *daemon) parse(args []string, progress io.Writer) (done bool, err error) {
	if done, err = d.flags.parse(args); done || err != nil {
		return done, err
	}
	if progress == nil {
		progress = io.Discard
	}
	d.progress = progress
	d.logger, err = d.log.logger(progress)
	return false, err
}

// daemonEnv is what the lifecycle hands a daemon's constructor.
type daemonEnv struct {
	Addr    string        // the bound -addr
	Metrics *obs.Registry // always present, so every server serves /metrics on its main port
	Tracer  *span.Tracer  // labeled name@Addr, so a fleet waterfall names the node
	Log     *slog.Logger  // feeds the flight ring; carries the service name
	Flight  *flight.Recorder
	DumpDir string // -flight-dump-dir
}

// node is a daemon's server as the lifecycle drives it.
type node struct {
	http.Handler
	banner string // the startup line
	// stop runs on the first SIGINT/SIGTERM, before the HTTP server gets
	// 5 seconds to finish in-flight requests; again delivers a second
	// signal. nil announces the shutdown and returns.
	stop  func(sig os.Signal, again <-chan os.Signal) error
	close func()        // releases the server; nil when it holds nothing
	bye   func() string // the last progress line
}

// serve runs the daemon until SIGINT/SIGTERM. It starts the -metrics-addr
// side port, binds -addr before the server exists — so the tracer's
// service label carries the bound address — and builds the tracer, the
// flight ring (whose dumps carry the tracer's spans, and which installs
// the SIGQUIT dump handler) and the logger wrapped over the ring. start
// then constructs the server. serve announces it, calls ready with the
// bound address, and serves until a signal, or until serving fails, with
// GET /v1/debug/ in front of the server. Every resource is closed exactly
// once.
func (d *daemon) serve(ready func(addr string), start func(daemonEnv) (*node, error)) error {
	env := daemonEnv{Metrics: obs.NewRegistry(), DumpDir: *d.flight.dumpDir}
	stopMetrics, err := serveMetrics(*d.metricsAddr, env.Metrics, d.progress)
	if err != nil {
		return err
	}
	defer stopMetrics()
	ln, err := net.Listen("tcp", *d.addr)
	if err != nil {
		return err
	}
	env.Addr = ln.Addr().String()
	service := d.Name() + "@" + env.Addr
	env.Tracer = span.NewTracer(service, span.DefaultCapacity)
	fl, dumpPath, stopDump := d.flight.build(service, env.Tracer, d.progress)
	defer stopDump()
	env.Flight = fl
	// Recent log lines ride along in dumps; the logger keeps its format
	// and level floor.
	env.Log = slog.New(flight.NewLogHandler(d.logger.Handler(), env.Flight)).With("service", d.Name())
	n, err := start(env)
	if err != nil {
		ln.Close()
		return err
	}
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintln(d.progress, n.banner)
	if dumpPath == "" {
		dumpPath = "off"
	}
	fmt.Fprintf(d.progress, "diagnostics on http://%s/v1/debug/ (flight ring, SIGQUIT dump %s)\n", env.Addr, dumpPath)
	if ready != nil {
		ready(env.Addr)
	}

	mux := http.NewServeMux()
	mux.Handle("GET /v1/debug/flight", env.Flight)
	mux.HandleFunc("GET /v1/debug/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown debug endpoint (have: flight)", http.StatusNotFound)
	})
	mux.Handle("/", n)
	httpSrv := &http.Server{Handler: mux}
	closeUnused(httpSrv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }() // Serve closes ln
	var sig os.Signal
	select {
	case err = <-serveErr:
	case sig = <-sigc:
		if n.stop != nil {
			err = n.stop(sig, sigc)
		} else {
			fmt.Fprintf(d.progress, "%s: received %s, shutting down\n", d.Name(), sig)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(sctx) //nolint:errcheck // in-flight requests get a bounded wait
		scancel()
	}
	if n.close != nil {
		n.close()
	}
	if sig != nil {
		fmt.Fprintln(d.progress, n.bye())
	}
	return err
}

// closeUnused makes srv's Shutdown close every connection that has not
// sent a request yet. net/http counts such a connection as busy for its
// first 5 seconds, so a client that dialed one and kept it idle, as
// http.Transport's pool can, would hold the shutdown that long.
func closeUnused(srv *http.Server) {
	var mu sync.Mutex
	unused := make(map[net.Conn]bool)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		if st == http.StateNew {
			unused[c] = true
		} else {
			delete(unused, c)
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		for c := range unused {
			c.Close()
		}
	})
}
