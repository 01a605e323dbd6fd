package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"mmt/internal/cluster"
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
	d := newDaemon("mmtserved", stdout, "127.0.0.1:8377", "listen address for the job API")
	rf := addRunnerFlags(d.FlagSet)
	var (
		cacheMax = d.Int64("cache-max-bytes", 0, "persistent cache byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
		remote   = d.String("remote-cache", "", "mmtcached base URL the persistent cache tiers into, e.g. http://127.0.0.1:8380 (empty = disabled)")

		queue        = d.Int("queue", 64, "admission queue capacity; beyond it submissions get 429 + Retry-After")
		precheck     = d.Bool("precheck", false, "statically analyze submitted programs and reject error findings with 400 (see mmtcheck)")
		deadline     = d.Duration("deadline", 0, "default queued-deadline for submissions that carry none (0 = none)")
		drainTimeout = d.Duration("drain-timeout", time.Minute, "how long a signal-triggered drain waits for in-flight jobs")

		traceOut = d.String("trace-out", "", "write a Chrome trace-event JSON timeline of the runner's workers (open in Perfetto)")
	)
	if done, err := d.parse(args, progress); done || err != nil {
		return err
	}
	ropts, err := rf.options(progress)
	if err != nil {
		return err
	}
	ropts.CacheMaxBytes = *cacheMax
	if *remote != "" {
		ropts.RemoteCache = cluster.NewCacheClient(*remote, nil)
	}

	// rootCtx is the pool's hard-abort context: canceled when the drain
	// deadline expires or a second signal arrives.
	rootCtx, abort := context.WithCancel(context.Background())
	defer abort()
	jt, err := openJobTrace(*traceOut, "mmtserved runner",
		map[string]string{"version": Version(), "workers": strconv.Itoa(ropts.Workers)})
	if err != nil {
		return err
	}
	err = d.serve(ready, func(env daemonEnv) (*node, error) {
		env.Tracer.SetObserver(jt.observe)
		// A captured worker panic lands in the flight ring and dumps it.
		ropts.Flight, ropts.FlightDumpDir = env.Flight, env.DumpDir
		srv, err := serve.New(rootCtx, serve.Options{
			Runner:          ropts,
			MaxQueue:        *queue,
			DefaultDeadline: *deadline,
			Precheck:        *precheck,
			Metrics:         env.Metrics, Tracer: env.Tracer, Log: env.Log,
		})
		if err != nil {
			return nil, err
		}
		return &node{
			Handler: srv,
			banner: fmt.Sprintf("mmtserved %s serving on http://%s/v1 (%d workers, queue %d)",
				Version(), env.Addr, srv.Pool().Summary().Workers, *queue),
			stop: func(sig os.Signal, again <-chan os.Signal) error {
				fmt.Fprintf(d.progress, "mmtserved: received %s, draining (timeout %s; signal again to abort)\n", sig, *drainTimeout)
				go func() {
					select {
					case <-again: // abort in-flight simulations
						abort()
					case <-rootCtx.Done():
					}
				}()
				dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
				defer dcancel()
				if err := srv.Drain(dctx); err != nil {
					fmt.Fprintf(d.progress, "mmtserved: %v; aborting\n", err)
					abort()
					return err
				}
				return nil
			},
			close: func() { srv.Close() },
			bye: func() string {
				if s := srv.Pool().Summary(); s.Jobs > 0 {
					return s.Format() + "mmtserved: drained, bye"
				}
				return "mmtserved: drained, bye"
			},
		}, nil
	})
	if cerr := jt.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
