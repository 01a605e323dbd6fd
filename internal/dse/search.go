package dse

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"mmt/internal/obs"
	"mmt/internal/power"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// Options configures one exploration.
type Options struct {
	// Spec is the search space (required).
	Spec *Spec
	// Seed drives the sampler; the same (spec, seed, budget, workloads)
	// always evaluates the same points in the same order.
	Seed uint64
	// Budget caps (point, rung) evaluations; 0 means unbounded. Resumed
	// results count the same as fresh evaluations would — the budget
	// describes the study's size, not this process's spend — so resuming
	// cannot change which points a study covers.
	Budget int
	// Workloads overrides the spec's workload list (nil keeps it; an
	// empty spec list means all sixteen paper kernels).
	Workloads []string
	// Backend executes the simulations (required).
	Backend Backend
	// Concurrency bounds in-flight evaluations per rung (<= 0 means 1;
	// results are committed in sampler order regardless).
	Concurrency int
	// Progress, when non-nil, receives one line per rung and per
	// evaluated point (point stderr here; artifacts go to stdout).
	Progress io.Writer
	// Metrics holds the mmt_dse_* counters/gauges. Nil means a private
	// registry; the engine counts either way.
	Metrics *obs.Registry
	// Log, when non-nil, receives structured request-scoped lines: one per
	// evaluation, stamped with the trace id the backend carried (nil
	// discards them). Progress stays the human-readable channel.
	Log *slog.Logger
	// Resume, when non-nil, is a prior (typically Partial) study of the
	// same space: its results are reused instead of re-simulated.
	Resume *Study
	// CheckpointPath, when non-empty, atomically writes a Partial study
	// after every rung, so an interrupted exploration can resume.
	CheckpointPath string
}

// metrics is the engine's instrumentation.
type metrics struct {
	points, sims, insts *obs.Counter
	frontier, rung      *obs.Gauge
}

// newMetrics registers the engine's instruments in r, or in a private
// registry when r is nil.
func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return metrics{
		points:   r.Counter("mmt_dse_points_evaluated_total", "design points evaluated (point,rung pairs)"),
		sims:     r.Counter("mmt_dse_simulations_total", "individual workload simulations requested"),
		insts:    r.Counter("mmt_dse_committed_insts_total", "committed instructions across all simulations"),
		frontier: r.Gauge("mmt_dse_frontier_size", "current Pareto frontier size"),
		rung:     r.Gauge("mmt_dse_rung", "successive-halving rung in progress"),
	}
}

// Search runs the exploration to completion (or budget exhaustion) and
// returns the finished study.
func Search(ctx context.Context, opts Options) (*Study, error) {
	spec := opts.Spec
	if spec == nil {
		return nil, fmt.Errorf("dse: no search space")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Backend == nil {
		return nil, fmt.Errorf("dse: no backend")
	}
	apps := opts.Workloads
	if apps == nil {
		apps = spec.Workloads
	}
	if len(apps) == 0 {
		apps = workloads.Names()
	}
	for _, name := range apps {
		if _, ok := workloads.ByName(name); !ok {
			return nil, fmt.Errorf("dse: unknown workload %q", name)
		}
	}
	m := newMetrics(opts.Metrics)
	progress := opts.Progress
	if progress == nil {
		progress = io.Discard
	}
	logg := opts.Log
	if logg == nil {
		logg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	var reuse map[string]*PointResult
	if opts.Resume != nil {
		if opts.Resume.Space.Name != spec.Name {
			return nil, fmt.Errorf("dse: resume study searched space %q, not %q",
				opts.Resume.Space.Name, spec.Name)
		}
		reuse = opts.Resume.resultByKey()
	}

	st := &Study{
		Schema:    StudySchema,
		Space:     *spec,
		Seed:      opts.Seed,
		Workloads: apps,
		Budget:    BudgetReport{Limit: opts.Budget},
	}

	// The rung-0 cohort: every space point in sampler order, statically
	// best first when the spec ranks.
	var cohort []Point
	for _, idx := range sampleOrder(spec, opts.Seed) {
		p, err := spec.PointAt(idx)
		if err != nil {
			return nil, err
		}
		cohort = append(cohort, p)
	}
	if spec.Rank {
		var err error
		if cohort, err = rank(spec, apps, cohort, progress); err != nil {
			return nil, err
		}
	}

	rungs := spec.rungs()
	for r := 0; r < len(rungs) && len(cohort) > 0; r++ {
		m.rung.Set(int64(r))
		// Budget: how much of this cohort is affordable.
		n := len(cohort)
		if opts.Budget > 0 {
			if left := opts.Budget - st.Budget.Evaluations; left < n {
				n = left
				st.Budget.Truncated = true
			}
		}
		fmt.Fprintf(progress, "dse: rung %d/%d: %d points at %d insts on %s\n",
			r+1, len(rungs), n, rungs[r], opts.Backend.Name())
		results, err := evaluateCohort(ctx, opts.Backend, spec, apps, cohort[:n], r, rungs[r],
			opts.Concurrency, reuse, progress, logg, m)
		if err != nil {
			return nil, err
		}
		st.Points = append(st.Points, results...)
		st.Budget.Evaluations += len(results)
		for i := range results {
			st.Budget.Simulations += len(results[i].PerApp)
			for _, a := range results[i].PerApp {
				st.Budget.CommittedInsts += a.Insts
			}
		}
		m.frontier.Set(int64(len(st.computeFrontier())))
		if opts.CheckpointPath != "" && r < len(rungs)-1 {
			st.Partial = true
			st.Frontier = st.computeFrontier()
			if err := WriteStudy(opts.CheckpointPath, st); err != nil {
				return nil, fmt.Errorf("dse: checkpoint: %w", err)
			}
		}
		if st.Budget.Truncated || r == len(rungs)-1 {
			break
		}
		// Successive halving: promote the Pareto-best 1/eta to the next
		// (longer) rung.
		ids := make([]string, n)
		objs := make([]Objectives, n)
		for i := range results {
			ids[i], objs[i] = results[i].ID, results[i].Objectives
		}
		keep := (n + spec.eta() - 1) / spec.eta()
		order := promote(ids, objs)
		next := make([]Point, 0, keep)
		for _, i := range order[:keep] {
			next = append(next, cohort[i])
		}
		fmt.Fprintf(progress, "dse: rung %d promotes %d/%d survivors\n", r+1, keep, n)
		cohort = next
	}

	st.Partial = false
	st.Frontier = st.computeFrontier()
	m.frontier.Set(int64(len(st.Frontier)))
	if opts.CheckpointPath != "" {
		if err := WriteStudy(opts.CheckpointPath, st); err != nil {
			return nil, fmt.Errorf("dse: writing study: %w", err)
		}
	}
	return st, nil
}

// evaluateCohort runs one rung's points, Concurrency at a time, and
// returns their results in cohort order (parallelism never reorders the
// artifact). The first error in cohort order wins.
func evaluateCohort(ctx context.Context, be Backend, spec *Spec, apps []string,
	cohort []Point, rung int, maxInsts uint64, concurrency int,
	reuse map[string]*PointResult, progress io.Writer, logg *slog.Logger, m metrics) ([]PointResult, error) {

	if concurrency <= 0 {
		concurrency = 1
	}
	results := make([]PointResult, len(cohort))
	errs := make([]error, len(cohort))
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := range cohort {
		if prev, ok := reuse[fmt.Sprintf("%s@%d", cohort[i].ID, rung)]; ok {
			results[i] = *prev
			m.points.Inc()
			m.sims.Add(uint64(len(prev.PerApp)))
			fmt.Fprintf(progress, "dse: reuse %s@%d: IPC %.3f, %.1f pJ/job\n",
				prev.ID, rung, prev.Objectives.IPC, prev.Objectives.EnergyPerJob)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pr, err := evaluatePoint(ctx, be, spec, apps, cohort[i], rung, maxInsts, logg)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = *pr
			m.points.Inc()
			m.sims.Add(uint64(len(pr.PerApp)))
			for _, a := range pr.PerApp {
				m.insts.Add(a.Insts)
			}
			fmt.Fprintf(progress, "dse: eval %s@%d: IPC %.3f, %.1f pJ/job\n",
				pr.ID, rung, pr.Objectives.IPC, pr.Objectives.EnergyPerJob)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// evaluatePoint simulates one candidate on every workload and aggregates
// the two objectives: IPC as the geometric mean (the paper's throughput
// aggregate) and energy/job as the arithmetic mean, plus the summed
// per-structure energy breakdown in canonical component form.
func evaluatePoint(ctx context.Context, be Backend, spec *Spec, apps []string,
	p Point, rung int, maxInsts uint64, logg *slog.Logger) (*PointResult, error) {

	override := p.Override
	override.MaxInsts = maxInsts
	pr := &PointResult{ID: p.ID, Rung: rung, Config: override}
	model := power.NewModel()
	var ipcs []float64
	var epjSum float64
	detail := map[string]float64{}
	for _, app := range apps {
		ov := override
		ts := sim.TaskSpec{App: app, Preset: spec.Preset, Threads: spec.Threads, Config: &ov}
		// The trace id is deterministic (point, rung, app), so re-running a
		// study greps to the same server-side spans and flight entries.
		trace := fmt.Sprintf("dse-%s-r%d-%s", p.ID, rung, app)
		out, err := runOn(ctx, be, ts, trace)
		if err != nil {
			logg.Warn("evaluation failed", "point", p.ID, "rung", rung, "app", app,
				"trace", trace, "error", err.Error())
			return nil, fmt.Errorf("dse: %s on %s: %w", p.ID, app, err)
		}
		logg.Debug("evaluation done", "point", p.ID, "rung", rung, "app", app, "trace", trace)
		res := out.Result
		if res == nil || res.Stats == nil {
			return nil, fmt.Errorf("dse: %s on %s: outcome has no result", p.ID, app)
		}
		epj := model.EnergyPerJob(res.Stats, res.Mem)
		pr.PerApp = append(pr.PerApp, AppResult{
			App:          app,
			IPC:          res.IPC(),
			EnergyPerJob: epj,
			Cycles:       res.Stats.Cycles,
			Insts:        res.Stats.TotalCommitted(),
		})
		ipcs = append(ipcs, res.IPC())
		epjSum += epj
		power.AddComponents(detail, model.DetailedComponents(res.Stats, res.Mem))
	}
	pr.Objectives = Objectives{
		IPC:          sim.Geomean(ipcs),
		EnergyPerJob: epjSum / float64(len(apps)),
	}
	pr.Energy = power.Components(detail)
	return pr, nil
}
