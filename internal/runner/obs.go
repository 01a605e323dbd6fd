package runner

import "mmt/internal/obs"

// poolMetrics holds the instruments the pool updates while running. They
// are the pool's only counts: Summary and the progress line read them.
type poolMetrics struct {
	scheduled    *obs.Counter
	executed     *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	failed       *obs.Counter
	retries      *obs.Counter
	invalidated  *obs.Counter
	evictions    *obs.Counter
	remoteHits   *obs.Counter
	remoteMisses *obs.Counter
	remoteStores *obs.Counter
	busy         *obs.Gauge
	queued       *obs.Gauge
	queueTime    *obs.Timer
	runTime      *obs.Timer
}

// newPoolMetrics registers the pool's instruments in r, or in a private
// registry when r is nil.
func newPoolMetrics(r *obs.Registry) *poolMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &poolMetrics{
		scheduled:    r.Counter("mmt_runner_jobs_scheduled_total", "Jobs scheduled on the pool; a failed key scheduled again counts again."),
		executed:     r.Counter("mmt_runner_jobs_executed_total", "Simulations run to completion."),
		cacheHits:    r.Counter("mmt_runner_cache_hits_total", "Jobs served from the persistent result cache."),
		cacheMisses:  r.Counter("mmt_runner_cache_misses_total", "Persistent-cache lookups that missed."),
		failed:       r.Counter("mmt_runner_jobs_failed_total", "Jobs that finished with an error."),
		retries:      r.Counter("mmt_runner_retries_total", "Extra attempts consumed by failed jobs."),
		invalidated:  r.Counter("mmt_runner_cache_invalidated_total", "Corrupt or mismatched cache entries deleted."),
		evictions:    EvictionCounter(r),
		remoteHits:   r.Counter("mmt_runner_remote_cache_hits_total", "Jobs served from the remote shared cache tier."),
		remoteMisses: r.Counter("mmt_runner_remote_cache_misses_total", "Remote cache lookups that missed or failed."),
		remoteStores: r.Counter("mmt_runner_remote_cache_stores_total", "Outcomes written through to the remote cache tier."),
		busy:         r.Gauge("mmt_runner_workers_busy", "Workers currently executing a job."),
		queued:       r.Gauge("mmt_runner_queue_depth", "Jobs waiting for a worker."),
		queueTime:    r.Timer("mmt_runner_queue", "Time jobs spent queued before a worker picked them up."),
		runTime:      r.Timer("mmt_runner_run", "Wall-clock time of executed simulations."),
	}
}

// EvictionCounter returns r's mmt_cache_evictions_total, the counter a
// Cache counts its byte-budget evictions into (see OpenCache). The pool
// and the remote cache service both register it through here.
func EvictionCounter(r *obs.Registry) *obs.Counter {
	return r.Counter("mmt_cache_evictions_total", "Entries evicted from the persistent cache by its byte budget.")
}
