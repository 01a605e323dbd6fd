// Package runner is the experiment-execution subsystem: it schedules
// simulation tasks across a bounded worker pool with cancellation, per-job
// timeouts, panic capture and bounded retry, layers a persistent on-disk
// result cache over the in-memory memo, and reports live progress plus a
// post-run summary. Its counts live in metrics instruments (cache hit/miss
// counters, worker utilization, queue/run timings) that the summary reads
// and Options.Metrics exports for the -metrics-addr endpoint; with
// Options.Tracer it records every job's spans — the process's one
// wall-clock job timeline.
//
// The Pool implements sim.Exec, so the experiment drivers in internal/sim
// are oblivious to whether they run serially or across N workers: they
// enumerate their simulation points with Schedule and assemble rows in a
// fixed order with Do. Jobs are deduplicated by the tasks' content-
// addressed keys, so points shared between artifacts (Fig. 5a/5b/5d/6 all
// need the Base and MMT-FXR runs) simulate once per process — and, with a
// cache directory, once ever until the configuration changes.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
	"mmt/internal/sim"
)

// ErrClosed is returned by Do and Schedule on a pool whose Close has been
// called. The post-Close contract: no new work is accepted, every job
// accepted before Close still resolves, and callers distinguish "pool
// shut down" (ErrClosed) from "batch canceled" (the context's error).
// The job server's drain path relies on this being a stable sentinel.
var ErrClosed = errors.New("runner: pool closed")

// Completion describes one resolved job, delivered to Options.OnComplete.
type Completion struct {
	// Key is the task's content-addressed identity; Name its display label.
	Key, Name string
	// FromCache reports the outcome was served from the persistent result
	// cache rather than simulated.
	FromCache bool
	// Dur is the executed simulation's wall clock (zero for cache hits
	// and cancellations).
	Dur time.Duration
	// Err is the job's final error, nil on success.
	Err error
}

const (
	// remoteTimeout bounds one remote cache load or store.
	remoteTimeout = 2 * time.Second
	// progressEvery is the live-progress refresh period.
	progressEvery = 2 * time.Second
)

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 means runtime.NumCPU().
	Workers int
	// CacheDir, when non-empty, enables the persistent result cache.
	CacheDir string
	// CacheMaxBytes caps the persistent cache's disk footprint; beyond it
	// least-recently-used entries are evicted (0 = unlimited).
	CacheMaxBytes int64
	// RemoteCache, when non-nil, is the shared result-cache tier checked
	// on a local cache miss and written through on store (see RemoteCache;
	// internal/cluster provides the HTTP client for cmd/mmtcached).
	RemoteCache RemoteCache
	// Timeout bounds one attempt's wall clock (0 = none). The simulator
	// is not interruptible, so a timed-out attempt's goroutine is
	// abandoned and the attempt reported failed.
	Timeout time.Duration
	// Retries is how many extra attempts a failed (errored, panicked or
	// timed-out) job gets before its error is reported.
	Retries int
	// Progress, when non-nil, receives live progress lines (one per
	// refresh with changed counts) — point it at stderr so artifact
	// output on stdout stays byte-identical across worker counts.
	Progress io.Writer
	// Metrics holds the pool's live counters and gauges — scheduled/
	// executed jobs, cache hits and misses, failures, retries, busy
	// workers, queue depth, and queue/run wall-clock timings — for the
	// -metrics-addr /metrics endpoint. Nil means a private registry;
	// Summary and the progress line count either way.
	Metrics *obs.Registry
	// Tracer, when non-nil, records every job's spans: pool queue wait,
	// cache probes (local and remote tiers), the execution with its sim
	// build/run phases, and the store-through. A job's spans join the
	// trace of its span parent or correlation id (sim.Task.SpanParent /
	// TraceID); a job with neither roots a fresh trace.
	Tracer *span.Tracer
	// OnComplete, when non-nil, is called once per job when its outcome
	// becomes final — after the result is recorded but before waiters
	// blocked in Do unblock, so a caller that observes Do returning is
	// guaranteed the hook already ran for that key. It executes on the
	// worker (or cancellation-watcher) goroutine: keep it fast and do not
	// call back into the pool.
	OnComplete func(Completion)
	// Flight, when non-nil, is the process's black-box ring: a captured
	// worker panic is recorded there with the offending job's task key
	// and trace id, and — when FlightDumpDir is set — the whole ring is
	// dumped to disk so the moments leading up to the panic survive the
	// process. A ring built over the same Tracer (flight.New) carries the
	// job timeline in that dump.
	Flight *flight.Recorder
	// FlightDumpDir is where panic-triggered flight dumps land (empty
	// disables dumping; the ring entry is still recorded).
	FlightDumpDir string
}

// job is one scheduled task and its future outcome.
type job struct {
	task sim.Task
	key  string

	enqueuedAt time.Time // for the queue-latency metric

	done chan struct{} // closed when out/err are final
	out  *sim.Outcome
	err  error
}

// Pool executes simulation tasks across a bounded worker pool.
type Pool struct {
	ctx   context.Context
	opts  Options
	cache *Cache
	met   *poolMetrics

	// mu guards the fields below and orders the met counts, so a Summary
	// snapshot is consistent.
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	jobs     map[string]*job
	closed   bool
	canceled bool
	timings  []JobTiming // executed jobs, for Summary.Slowest

	start        time.Time
	wall         time.Duration
	workers      sync.WaitGroup
	stopWatch    chan struct{}
	stopProgress chan struct{}
	progress     sync.WaitGroup // the progressLoop, joined by Close
	closeOnce    sync.Once
}

// compile-time check: the pool is a drop-in executor for the sim drivers.
var _ sim.Exec = (*Pool)(nil)

// New starts a pool. Close must be called to release its workers; ctx
// cancellation fails every pending job with ctx.Err().
func New(ctx context.Context, opts Options) (*Pool, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	p := &Pool{
		ctx:          ctx,
		opts:         opts,
		jobs:         make(map[string]*job),
		start:        time.Now(),
		stopWatch:    make(chan struct{}),
		stopProgress: make(chan struct{}),
		met:          newPoolMetrics(opts.Metrics),
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.CacheDir != "" {
		c, err := OpenCache(opts.CacheDir, opts.CacheMaxBytes, p.met.evictions)
		if err != nil {
			return nil, err
		}
		p.cache = c
	}
	for i := 0; i < opts.Workers; i++ {
		p.workers.Add(1)
		go p.worker(i)
	}
	go p.watchCancel()
	if opts.Progress != nil {
		p.progress.Add(1)
		go p.progressLoop()
	}
	return p, nil
}

// Schedule enqueues tasks for the workers; tasks whose key is already
// known are deduplicated. Scheduling is asynchronous — collect outcomes
// with Do. It returns ErrClosed on a closed pool, the context's error
// after cancellation, or the first keying error; drivers that collect
// every outcome with Do may ignore it, because Do reports the same
// condition per task.
func (p *Pool) Schedule(tasks ...sim.Task) error {
	var first error
	for _, t := range tasks {
		if _, err := p.ensure(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Do returns the task's outcome, scheduling it if it is not already
// queued, running or finished. It blocks until the job completes or the
// pool's context is canceled. A failure is not kept: once Do has
// reported a job's error, the next Do of its key runs the task afresh,
// while callers already waiting on that job still get the error.
func (p *Pool) Do(t sim.Task) (*sim.Outcome, error) {
	j, err := p.ensure(t)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
	case <-p.ctx.Done():
		// The job may have completed in the same instant; prefer its
		// real outcome.
		select {
		case <-j.done:
		default:
			return nil, p.ctx.Err()
		}
	}
	if j.err != nil {
		p.mu.Lock()
		if p.jobs[j.key] == j {
			delete(p.jobs, j.key)
		}
		p.mu.Unlock()
	}
	return j.out, j.err
}

// ensure returns the job for the task's key, creating and enqueueing it if
// new. A closed pool refuses new keys with ErrClosed and a canceled pool
// with its context's error — existing keys still resolve, so late Do calls
// collecting an already-scheduled batch keep working after Close.
func (p *Pool) ensure(t sim.Task) (*job, error) {
	key, err := t.Key()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if j, ok := p.jobs[key]; ok {
		return j, nil
	}
	if p.canceled {
		return nil, p.ctx.Err()
	}
	if p.closed {
		return nil, ErrClosed
	}
	j := &job{task: t, key: key, done: make(chan struct{}), enqueuedAt: time.Now()}
	p.jobs[key] = j
	p.queue = append(p.queue, j)
	p.met.scheduled.Inc()
	p.met.queued.Add(1)
	p.cond.Signal()
	return j, nil
}

// worker drains the queue until the pool closes or is canceled. id labels
// the worker on its jobs' exec spans.
func (p *Pool) worker(id int) {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed && !p.canceled {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.met.queued.Add(-1)
		p.met.queueTime.Observe(time.Since(j.enqueuedAt))
		p.met.busy.Add(1)
		p.run(j, id)
		p.met.busy.Add(-1)
	}
}

// watchCancel fails every queued job the moment the context is canceled,
// so Do callers unblock promptly even with all workers busy.
func (p *Pool) watchCancel() {
	select {
	case <-p.ctx.Done():
	case <-p.stopWatch:
		return
	}
	p.mu.Lock()
	p.canceled = true
	failed := p.queue
	p.queue = nil
	p.met.queued.Set(0)
	p.met.failed.Add(uint64(len(failed)))
	p.cond.Broadcast()
	p.mu.Unlock()
	// Resolve the failed jobs outside the lock: the completion hook runs
	// before each job's waiters unblock, same as the worker path.
	for _, j := range failed {
		j.err = p.ctx.Err()
		if p.opts.OnComplete != nil {
			p.opts.OnComplete(Completion{Key: j.key, Name: j.task.Name(), Err: j.err})
		}
		close(j.done)
	}
}

// spanParent resolves a job's distributed-span parent: the serving
// layer's serialized traceparent when present, else the bare correlation
// id (locally traced jobs root their own subtree). Zero for jobs with
// neither.
func (j *job) spanParent() span.SpanContext {
	if parent := span.Parse(j.task.SpanParent); parent.TraceID != "" {
		return parent
	}
	if j.task.TraceID != "" {
		return span.SpanContext{TraceID: j.task.TraceID}
	}
	return span.SpanContext{}
}

// run executes one job on worker wid: cache lookup, bounded attempts,
// cache store.
func (p *Pool) run(j *job, wid int) {
	if err := p.ctx.Err(); err != nil {
		p.finish(j, nil, false, 0, err)
		return
	}
	tracer := p.opts.Tracer
	parent := j.spanParent()
	if tracer != nil && parent.TraceID == "" {
		// One fresh trace per job holds all of its spans.
		parent.TraceID = span.NewTraceID()
	}
	// The schedule span back-dates to enqueue time: its duration IS the
	// pool's queue wait for this job.
	tracer.StartAt(parent, "runner.schedule", j.enqueuedAt).End()

	csp := tracer.Start(parent, "runner.cache")
	if p.cache != nil {
		out, ok, invalidated := p.cache.load(j.key, j.task)
		if invalidated {
			p.mu.Lock()
			p.met.invalidated.Inc()
			p.mu.Unlock()
		}
		if ok {
			csp.SetAttr("local", "hit")
			csp.End()
			p.finish(j, out, true, 0, nil)
			return
		}
		csp.SetAttr("local", "miss")
		p.met.cacheMisses.Inc()
	} else {
		csp.SetAttr("local", "off")
	}
	if out, ok := p.remoteLoad(j, csp.Context()); ok {
		csp.SetAttr("remote", "hit")
		csp.End()
		p.finish(j, out, true, 0, nil)
		return
	}
	if p.opts.RemoteCache != nil {
		csp.SetAttr("remote", "miss")
	}
	csp.End()

	esp := tracer.Start(parent, "runner.exec")
	task := j.task
	if esp != nil {
		esp.SetAttr("worker", strconv.Itoa(wid))
		esp.SetAttr("name", task.Name())
		// Bridge the simulator's phase observer onto exec-span children,
		// so the waterfall decomposes exec into sim.build and sim.run.
		execCtx := esp.Context()
		task.Phase = func(name string) func() {
			return tracer.Start(execCtx, "sim."+name).End
		}
	}
	start := time.Now()
	var out *sim.Outcome
	var err error
	retries := 0
	for attempt := 0; ; attempt++ {
		out, err = p.attempt(task, j.key)
		if err == nil || attempt >= p.opts.Retries || p.ctx.Err() != nil {
			break
		}
		retries++
		p.mu.Lock()
		p.met.retries.Inc()
		p.mu.Unlock()
	}
	dur := time.Since(start)
	if retries > 0 {
		esp.SetAttr("retries", strconv.Itoa(retries))
	}
	if err != nil {
		esp.SetAttr("error", err.Error())
	}
	esp.End()
	if err == nil {
		ssp := tracer.Start(parent, "runner.store")
		p.storeOutcome(j, out, ssp.Context())
		ssp.End()
	}
	p.finish(j, out, false, dur, err)
}

// storeOutcome persists a freshly simulated outcome: into the local disk
// cache, and through to the remote shared tier when one is configured.
// Both writes are best-effort — a failed store only costs a future
// re-simulation. sc rides the remote store's context so mmtcached can
// record its side of the hop.
func (p *Pool) storeOutcome(j *job, out *sim.Outcome, sc span.SpanContext) {
	var raw []byte
	if p.cache != nil {
		var err error
		if raw, err = p.cache.store(j.key, j.task, out); err != nil {
			if p.opts.Progress != nil {
				fmt.Fprintf(p.opts.Progress, "runner: cache write for %s failed: %v\n", j.task.Name(), err)
			}
			raw = nil
		}
	}
	if p.opts.RemoteCache == nil {
		return
	}
	if raw == nil {
		var err error
		if raw, err = encodeEntry(j.key, j.task, out); err != nil {
			return
		}
	}
	ctx, cancel := context.WithTimeout(span.ContextWith(context.Background(), sc), remoteTimeout)
	defer cancel()
	if err := p.opts.RemoteCache.Store(ctx, j.key, raw); err != nil {
		if p.opts.Progress != nil {
			fmt.Fprintf(p.opts.Progress, "runner: remote cache write for %s failed: %v\n", j.task.Name(), err)
		}
		return
	}
	p.met.remoteStores.Inc()
}

// remoteLoad consults the remote shared cache tier after a local miss.
// Hits are validated like disk entries and copied into the local cache,
// so the next restart answers locally; any error degrades into a miss.
// sc rides the request context so mmtcached can record its side.
func (p *Pool) remoteLoad(j *job, sc span.SpanContext) (*sim.Outcome, bool) {
	if p.opts.RemoteCache == nil {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(span.ContextWith(p.ctx, sc), remoteTimeout)
	defer cancel()
	raw, ok, err := p.opts.RemoteCache.Load(ctx, j.key)
	if err != nil || !ok {
		p.met.remoteMisses.Inc()
		return nil, false
	}
	out, derr := decodeEntry(raw, j.key, j.task)
	if derr != nil {
		p.met.remoteMisses.Inc()
		return nil, false
	}
	if p.cache != nil {
		p.cache.PutRaw(j.key, raw) //nolint:errcheck // warming the local tier is best-effort
	}
	p.met.remoteHits.Inc()
	return out, true
}

// attempt runs the task once on a fresh goroutine, converting panics into
// errors and enforcing the per-attempt timeout. key is the task's
// content-addressed identity, recorded with the panic so the flight dump
// names the exact experiment to replay.
func (p *Pool) attempt(t sim.Task, key string) (*sim.Outcome, error) {
	type result struct {
		out *sim.Outcome
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.notePanic(t, key, r)
				ch <- result{nil, fmt.Errorf("runner: job %s panicked: %v\n%s", t.Name(), r, debug.Stack())}
			}
		}()
		out, err := t.Execute()
		ch <- result{out, err}
	}()
	var timeout <-chan time.Time
	if p.opts.Timeout > 0 {
		timer := time.NewTimer(p.opts.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timeout:
		return nil, fmt.Errorf("runner: job %s timed out after %v (simulation goroutine abandoned)", t.Name(), p.opts.Timeout)
	case <-p.ctx.Done():
		return nil, p.ctx.Err()
	}
}

// notePanic lands a captured worker panic in the flight ring — with the
// offending job's task key and trace id — and dumps the ring to disk so
// the black box survives even if the process goes down next. Best-effort:
// panic capture must never introduce a second failure mode.
func (p *Pool) notePanic(t sim.Task, key string, r any) {
	fl := p.opts.Flight
	if fl == nil {
		return
	}
	fl.Panic(t.Name(), key, t.TraceID, fmt.Sprint(r))
	if p.opts.FlightDumpDir == "" {
		return
	}
	path := flight.DumpPath(p.opts.FlightDumpDir, fl.Service(), os.Getpid())
	if err := fl.WriteDump(path, "panic in job "+t.Name()); err != nil {
		if p.opts.Progress != nil {
			fmt.Fprintf(p.opts.Progress, "runner: flight dump for panicked job %s failed: %v\n", t.Name(), err)
		}
		return
	}
	if p.opts.Progress != nil {
		fmt.Fprintf(p.opts.Progress, "runner: job %s panicked; flight dump written to %s\n", t.Name(), path)
	}
}

// finish records a job's outcome and wakes its waiters.
func (p *Pool) finish(j *job, out *sim.Outcome, fromCache bool, dur time.Duration, err error) {
	p.mu.Lock()
	switch {
	case err != nil:
		p.met.failed.Inc()
	case fromCache:
		p.met.cacheHits.Inc()
	default:
		p.met.executed.Inc()
	}
	if !fromCache && dur > 0 {
		p.met.runTime.Observe(dur)
		p.timings = append(p.timings, JobTiming{Name: j.task.Name(), Duration: dur})
	}
	p.mu.Unlock()
	j.out, j.err = out, err
	if p.opts.OnComplete != nil {
		p.opts.OnComplete(Completion{Key: j.key, Name: j.task.Name(),
			FromCache: fromCache, Dur: dur, Err: err})
	}
	close(j.done)
}

// Close stops accepting work, waits for in-flight jobs, and stops the
// progress and cancellation watchers. It returns only after the progress
// loop has exited, so the caller may write to the progress stream
// afterwards. It is idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.cond.Broadcast()
		p.mu.Unlock()
		p.workers.Wait()
		close(p.stopWatch)
		close(p.stopProgress)
		p.progress.Wait()
		p.wall = time.Since(p.start)
	})
}

// progressLoop periodically emits a one-line status while jobs are moving.
func (p *Pool) progressLoop() {
	defer p.progress.Done()
	ticker := time.NewTicker(progressEvery)
	defer ticker.Stop()
	var last string
	for {
		select {
		case <-p.stopProgress:
			return
		case <-ticker.C:
			line := p.progressLine()
			if line != "" && line != last {
				fmt.Fprintln(p.opts.Progress, line)
				last = line
			}
		}
	}
}

// progressLine renders the current counts; empty when nothing is scheduled.
func (p *Pool) progressLine() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.met.scheduled.Value()
	if total == 0 {
		return ""
	}
	executed, cached, failed := p.met.executed.Value(), p.met.cacheHits.Value(), p.met.failed.Value()
	return fmt.Sprintf("runner: %d/%d jobs done (%d simulated, %d cached, %d failed)",
		executed+cached+failed, total, executed, cached, failed)
}
