package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/prof"
	"mmt/internal/serve"
	"mmt/internal/serve/client"
	"mmt/internal/sim"
)

// RunLoad is the mmtload command: a load generator for mmtserved. It
// submits -n jobs at concurrency -c, a -dup fraction of which repeat an
// earlier spec (exercising the server's single-flight dedup and result
// cache), and reports throughput, latency quantiles, and how the server
// sourced the outcomes.
func RunLoad(args []string, stdout io.Writer) error {
	return runLoad(args, stdout, os.Stderr)
}

func runLoad(args []string, stdout, progress io.Writer) error {
	fs := newFlags("mmtload", stdout)
	var (
		server  = fs.String("server", "http://127.0.0.1:8377", "mmtserved (or, with -cluster, mmtrouter) base URL")
		fleetly = fs.Bool("cluster", false, "treat -server as an mmtrouter: report per-node throughput and latency plus the fleet dedup ratio")
		n       = fs.Int("n", 32, "total jobs to submit")
		conc    = fs.Int("c", 8, "concurrent in-flight jobs")
		dup     = fs.Float64("dup", 0.5, "fraction of jobs that duplicate an earlier spec [0,1)")
		seed    = fs.Int64("seed", 1, "workload generator seed (same seed = same job stream)")

		app      = fs.String("app", "libsvm", "workload to submit")
		preset   = fs.String("preset", "", "design point (empty = server default, MMT-FXR)")
		threads  = fs.Int("threads", 0, "hardware threads (0 = server default)")
		maxInsts = fs.Uint64("max-insts", 20000, "per-thread committed-instruction bound (keeps load jobs cheap)")

		deadlineMS  = fs.Int64("deadline-ms", 0, "per-job queued-deadline in milliseconds (0 = server default)")
		retries     = fs.Int("retries", 4, "client retry budget per request")
		metricsAddr = fs.String("metrics-addr", "", "serve the load generator's own metrics on this address")
		eventsOut   = fs.String("events-out", "", "write a JSONL client-side job timeline (one load.job span record per job)")
		attribution = fs.Bool("attribution", false, "request per-PC attribution profiles from the server and merge them")
		profileOut  = fs.String("profile-out", "", "with -attribution: write the merged attribution profile to this file")
		profileTop  = fs.Int("profile-top", 5, "sites in the printed attribution summary (0 = all)")
	)
	logf := addLogFlags(fs.FlagSet)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	logger, err := logf.logger(progress)
	if err != nil {
		return err
	}
	logger = logger.With("service", "mmtload")
	if *n <= 0 || *conc <= 0 {
		return fmt.Errorf("-n and -c must be positive")
	}
	if *dup < 0 || *dup >= 1 {
		return fmt.Errorf("-dup must be in [0,1)")
	}
	if err := validateRetries(*retries); err != nil {
		return err
	}
	if *profileOut != "" && !*attribution {
		return fmt.Errorf("-profile-out requires -attribution")
	}

	reg := obs.NewRegistry()
	submitted := reg.Counter("mmt_load_jobs_total", "Jobs submitted by the load generator.")
	failures := reg.Counter("mmt_load_failures_total", "Jobs that ended in an error.")
	latency := reg.Histogram("mmt_load_job_latency_seconds", "Submit-to-outcome latency observed by the client.")
	stopMetrics, err := serveMetrics(*metricsAddr, reg, progress)
	if err != nil {
		return err
	}
	defer stopMetrics()
	specs := loadSpecs(*n, *dup, *seed, sim.TaskSpec{
		App: *app, Preset: sim.Preset(*preset), Threads: *threads,
		Config:      &sim.ConfigOverride{MaxInsts: *maxInsts},
		Attribution: *attribution,
	})
	unique := map[string]bool{}
	for _, s := range specs {
		b, _ := json.Marshal(s)
		unique[string(b)] = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := client.New(*server, nil)
	c.Retries = *retries

	before, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("reaching %s: %w", *server, err)
	}
	var clusterBefore cluster.ClusterStats
	if *fleetly {
		if clusterBefore, err = cluster.FetchClusterStats(ctx, nil, *server); err != nil {
			return fmt.Errorf("-cluster: %s is not an mmtrouter: %w", *server, err)
		}
	}
	fmt.Fprintf(stdout, "mmtload: %d jobs (%d unique specs), concurrency %d, dup ratio %.2f, seed %d -> %s\n",
		*n, len(unique), *conc, *dup, *seed, *server)

	jobLog, closeJobLog, err := openSpanLog(*eventsOut, "mmtload")
	if err != nil {
		return err
	}
	type result struct {
		dur    time.Duration
		source string // JobStatus.Source: "simulated" or "cache"
		dedup  bool   // joined an already-admitted flight
		err    error
	}
	results := make([]result, len(specs))
	var profMu sync.Mutex
	var merged *prof.Profile
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Deterministic per-job correlation id: the same seed
				// produces the same ids, so two runs' traces line up.
				traceID := fmt.Sprintf("load-%d-%d", *seed, i)
				t0 := time.Now()
				o, st, err := c.Run(ctx, serve.SubmitRequest{
					Task: specs[i], DeadlineMS: *deadlineMS, TraceID: traceID,
				})
				d := time.Since(t0)
				results[i] = result{dur: d, source: st.Source, dedup: st.Dedup, err: err}
				submitted.Inc()
				latency.Observe(d)
				if err != nil {
					failures.Inc()
					logger.Warn("job failed", "job", i, "trace", traceID, "error", err.Error())
				} else {
					logger.Debug("job done", "job", st.ID, "trace", traceID,
						"source", st.Source, "dedup", st.Dedup, "ms", d.Milliseconds())
				}
				if err == nil && o != nil && o.Attribution != nil {
					profMu.Lock()
					if merged == nil {
						merged = &prof.Profile{Schema: prof.SchemaVersion}
					}
					merged.Merge(o.Attribution)
					profMu.Unlock()
				}
				// A local span: it is not propagated, so the fleet's
				// trace trees stay as they are.
				sp := jobLog.StartAt(span.SpanContext{TraceID: traceID}, "load.job", t0)
				sp.SetAttr("source", st.Source)
				sp.SetAttr("dedup", strconv.FormatBool(st.Dedup))
				sp.End()
			}
		}()
	}
	for i := range specs {
		select {
		case work <- i:
		case <-ctx.Done():
			i = len(specs) // stop feeding; workers drain and exit
		}
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	var durs []time.Duration
	failed, simulated, cached, dedupJoins := 0, 0, 0, 0
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.dur > 0 {
			durs = append(durs, r.dur)
		}
		switch r.source {
		case "simulated":
			simulated++
		case "cache":
			cached++
		}
		if r.dedup {
			dedupJoins++
		}
	}
	recErr := closeJobLog()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	fmt.Fprintf(stdout, "mmtload: done in %s — %.1f jobs/s, %d failed\n",
		wall.Round(time.Millisecond), float64(len(durs))/wall.Seconds(), failed)
	if len(durs) > 0 {
		fmt.Fprintf(stdout, "latency: p50 %s p90 %s p99 %s (min %s max %s)\n",
			quantileDur(durs, 0.50), quantileDur(durs, 0.90), quantileDur(durs, 0.99),
			durs[0].Round(time.Millisecond), durs[len(durs)-1].Round(time.Millisecond))
	}
	if done := len(results) - failed; done > 0 {
		fmt.Fprintf(stdout, "client:  simulated=%d cache=%d dedup_joins=%d (dedup hit ratio %.2f)\n",
			simulated, cached, dedupJoins, float64(dedupJoins)/float64(done))
	}
	if after, err := c.Stats(context.Background()); err == nil {
		fmt.Fprintf(stdout, "server:  simulated=%d cache=%d dedup_joins=%d rejected=%d expired=%d\n",
			after.Simulated-before.Simulated, after.FromCache-before.FromCache,
			after.Deduped-before.Deduped, after.Rejected-before.Rejected,
			after.Expired-before.Expired)
	}
	if *fleetly {
		if clusterAfter, err := cluster.FetchClusterStats(context.Background(), nil, *server); err == nil {
			printClusterReport(stdout, clusterBefore, clusterAfter, wall)
		} else {
			fmt.Fprintf(stdout, "cluster: stats fetch failed: %v\n", err)
		}
	}
	if merged != nil {
		total := merged.Cycles
		fmt.Fprintf(stdout, "attribution: %d cycles merged across jobs — base %.1f%% fetch-stall %.1f%% catchup %.1f%% rollback %.1f%% drain %.1f%%\n",
			total, loadPct(merged.CPI.Base, total), loadPct(merged.CPI.FetchStall, total),
			loadPct(merged.CPI.Catchup, total), loadPct(merged.CPI.Rollback, total), loadPct(merged.CPI.Drain, total))
		if *profileOut != "" {
			if err := writeProfile(stdout, *profileOut, merged, *profileTop); err != nil {
				return err
			}
		}
	} else if *attribution && firstErr == nil {
		fmt.Fprintln(stdout, "attribution: no profiles returned (older server?)")
	}
	if firstErr != nil {
		return fmt.Errorf("%d/%d jobs failed, first: %w", failed, len(specs), firstErr)
	}
	if recErr != nil {
		return recErr
	}
	return ctx.Err()
}

// openSpanLog returns a tracer whose finished spans stream into path as
// one JSON span.Record per line, and the function that flushes and closes
// the file, reporting the first write error. An empty path returns a nil
// tracer, which records nothing.
func openSpanLog(path, service string) (*span.Tracer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var (
		mu   sync.Mutex
		bw   = bufio.NewWriter(f)
		enc  = json.NewEncoder(bw)
		werr error
	)
	tr := span.NewTracer(service, 1)
	tr.SetObserver(func(r span.Record) {
		mu.Lock()
		if err := enc.Encode(r); err != nil && werr == nil {
			werr = err
		}
		mu.Unlock()
	})
	return tr, func() error {
		mu.Lock()
		defer mu.Unlock()
		if err := bw.Flush(); err != nil && werr == nil {
			werr = err
		}
		if err := f.Close(); err != nil && werr == nil {
			werr = err
		}
		return werr
	}, nil
}

// printClusterReport diffs two /v1/cluster snapshots around a run and
// prints the fleet dedup ratio plus a per-node throughput/latency table.
// Counters are deltas over the run; latency quantiles are the nodes' own
// cumulative estimates (quantiles do not diff), so they reflect each
// node's whole uptime.
func printClusterReport(stdout io.Writer, before, after cluster.ClusterStats, wall time.Duration) {
	completed := after.Fleet.Completed - before.Fleet.Completed
	simulated := after.Fleet.Simulated - before.Fleet.Simulated
	ratio := 0.0
	if completed > 0 {
		ratio = float64(completed-simulated) / float64(completed)
	}
	fmt.Fprintf(stdout, "cluster: fleet dedup ratio %.2f (%d completed, %d simulated) — routed=%d rerouted=%d stolen=%d errors=%d\n",
		ratio, completed, simulated,
		after.Routed-before.Routed, after.Rerouted-before.Rerouted,
		after.Stolen-before.Stolen, after.Errors-before.Errors)
	prev := map[string]cluster.NodeStatus{}
	for _, n := range before.Nodes {
		prev[n.Name] = n
	}
	fmt.Fprintf(stdout, "%-12s %-9s %9s %10s %10s %9s %10s %10s\n",
		"node", "state", "routed", "completed", "simulated", "jobs/s", "job_p50", "job_p99")
	for _, n := range after.Nodes {
		p := prev[n.Name]
		done := n.Stats.Completed - p.Stats.Completed
		fmt.Fprintf(stdout, "%-12s %-9s %9d %10d %10d %9.1f %9.0fms %9.0fms\n",
			n.Name, n.State, n.Routed-p.Routed, done, n.Stats.Simulated-p.Stats.Simulated,
			float64(done)/wall.Seconds(), n.Stats.JobP50MS, n.Stats.JobP99MS)
	}
}

func loadPct(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// loadSpecs builds the deterministic job stream: unique specs vary the
// FHB size, fetch width and load/store ports (the Fig. 7 knobs), and a
// dup fraction of positions repeat a random earlier spec. Each knob list
// starts with 0, the default machine's value, and holds no other value
// equal to it (Table 4: FHB 32, fetch width 8), so every unique spec has
// its own task key and variant 0 is the default machine.
func loadSpecs(n int, dup float64, seed int64, base sim.TaskSpec) []sim.TaskSpec {
	rng := rand.New(rand.NewSource(seed))
	fhbs := []int{0, 64, 128}
	widths := []int{0, 2}
	ports := []int{0, 1, 4}
	nextUnique := 0
	variant := func(i int) sim.TaskSpec {
		s := base
		cfg := *base.Config
		cfg.FHBSize = fhbs[i%len(fhbs)]
		cfg.FetchWidth = widths[(i/len(fhbs))%len(widths)]
		cfg.LSPorts = ports[(i/(len(fhbs)*len(widths)))%len(ports)]
		// Past the knob cross-product, nudge the instruction bound to stay
		// unique without changing the workload's character.
		cfg.MaxInsts = base.Config.MaxInsts + uint64(i/(len(fhbs)*len(widths)*len(ports)))*512
		s.Config = &cfg
		return s
	}
	specs := make([]sim.TaskSpec, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < dup {
			specs = append(specs, specs[rng.Intn(len(specs))])
			continue
		}
		specs = append(specs, variant(nextUnique))
		nextUnique++
	}
	return specs
}

func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Millisecond)
}
