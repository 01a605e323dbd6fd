package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mmt/internal/doctor"
	"mmt/internal/obs/flight"
)

// RunDoctor is the mmtdoctor command: fleet diagnostics. One invocation
// sweeps every process — the router, each node its /v1/cluster reports,
// and any extra -sources — pulling flight rings, span rings, metrics
// history, continuous-profiler captures and resolved configuration into a
// bundle directory, and prints a triage report. -watch instead polls
// health thresholds and exits non-zero on the first breach; -from-dump
// renders an on-disk flight dump (e.g. one a SIGQUIT'd node left behind).
func RunDoctor(args []string, stdout io.Writer) error {
	return runDoctor(args, stdout, os.Stderr)
}

// runDoctor is RunDoctor with the progress stream exposed for tests.
func runDoctor(args []string, stdout, progress io.Writer) error {
	fs := newFlags("mmtdoctor", stdout)
	var (
		server  = fs.String("server", "http://127.0.0.1:8378", "router (or single mmtserved) base URL; fleet nodes are discovered via its /v1/cluster")
		sources = fs.String("sources", "", "extra comma-separated base URLs to also collect from (e.g. an mmtcached)")
		out     = fs.String("out", "", "write the diagnosis bundle to this directory (empty = triage report only)")
		slowest = fs.Int("slowest", 3, "how many of the slowest recent traces to stitch into the bundle")
		timeout = fs.Duration("timeout", 30*time.Second, "overall collection timeout (per round in -watch mode)")

		watch     = fs.Bool("watch", false, "poll health thresholds instead of collecting; exits non-zero on the first breach")
		every     = fs.Duration("every", 5*time.Second, "polling cadence in -watch mode")
		rounds    = fs.Int("rounds", 0, "stop -watch after this many clean rounds (0 = forever)")
		maxP99    = fs.Duration("max-job-p99", 0, "breach when any node's job latency p99 exceeds this (0 = unchecked)")
		maxQueue  = fs.Int("max-queue", 0, "breach when any node's queue depth exceeds this (0 = unchecked)")
		maxFailed = fs.Float64("max-failed-rate", 0, "breach when failed/(completed+failed) exceeds this, 0..1 (0 = unchecked)")
		fromDump  = fs.String("from-dump", "", "render this on-disk flight dump file and exit")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if *fromDump != "" {
		d, err := flight.ReadDump(*fromDump)
		if err != nil {
			return err
		}
		d.Render(stdout)
		return nil
	}

	opts := doctor.Options{
		Server:     *server,
		Sources:    strings.Split(*sources, ","),
		SlowTraces: *slowest,
		Version:    Version(),
		Progress:   progress,
	}

	if *watch {
		th := doctor.Thresholds{MaxJobP99: *maxP99, MaxQueue: *maxQueue, MaxFailedRate: *maxFailed}
		if !th.Enabled() {
			return fmt.Errorf("-watch needs at least one threshold (-max-job-p99, -max-queue, -max-failed-rate)")
		}
		return watchLoop(stdout, progress, opts, th, *every, *rounds, *timeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	b, err := doctor.Collect(ctx, opts)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := b.Write(*out); err != nil {
			return fmt.Errorf("writing bundle: %w", err)
		}
		fmt.Fprintf(progress, "mmtdoctor: bundle written to %s (%d nodes, %d traces)\n",
			*out, len(b.Nodes), len(b.Traces))
	}
	b.Triage.WriteReport(stdout)
	return nil
}

// watchLoop polls the thresholds until a breach (error, non-zero exit) or
// the configured number of clean rounds.
func watchLoop(stdout, progress io.Writer, opts doctor.Options, th doctor.Thresholds,
	every time.Duration, rounds int, timeout time.Duration) error {

	if every <= 0 {
		every = 5 * time.Second
	}
	for round := 1; ; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		vs, err := doctor.Probe(ctx, opts, th)
		cancel()
		if err != nil {
			return err
		}
		if len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(stdout, "mmtdoctor: BREACH %s\n", v)
			}
			return fmt.Errorf("%d threshold breach(es) on round %d", len(vs), round)
		}
		fmt.Fprintf(progress, "mmtdoctor: round %d clean\n", round)
		if rounds > 0 && round >= rounds {
			fmt.Fprintf(stdout, "mmtdoctor: %d clean round(s), all thresholds held\n", round)
			return nil
		}
		time.Sleep(every)
	}
}
