package serve

import "mmt/internal/obs"

// metrics are the serving instruments, registered under mmt_serve_*. They
// are the server's only counts: /v1/stats reads them.
type metrics struct {
	submitted   *obs.Counter
	deduped     *obs.Counter
	rejected    *obs.Counter
	expired     *obs.Counter
	completed   *obs.Counter
	failed      *obs.Counter
	simulated   *obs.Counter
	cacheServed *obs.Counter

	queueDepth *obs.Gauge
	running    *obs.Gauge
	streams    *obs.Gauge

	reqLatency *obs.Histogram
	jobLatency *obs.Histogram
}

// newMetrics registers the serving instruments in reg, or in a private
// registry when reg is nil.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		submitted:   reg.Counter("mmt_serve_jobs_submitted_total", "Submissions accepted, including dedup joins."),
		deduped:     reg.Counter("mmt_serve_jobs_deduped_total", "Submissions absorbed by an in-flight identical job."),
		rejected:    reg.Counter("mmt_serve_jobs_rejected_total", "Submissions refused by admission control (429)."),
		expired:     reg.Counter("mmt_serve_jobs_expired_total", "Jobs that missed their queued-deadline before dispatch."),
		completed:   reg.Counter("mmt_serve_jobs_completed_total", "Jobs finished successfully."),
		failed:      reg.Counter("mmt_serve_jobs_failed_total", "Jobs finished with an error."),
		simulated:   reg.Counter("mmt_serve_flights_simulated_total", "Flights resolved by running the simulation."),
		cacheServed: reg.Counter("mmt_serve_flights_cache_total", "Flights resolved by the persistent result cache."),
		queueDepth:  reg.Gauge("mmt_serve_queue_depth", "Flights admitted and awaiting dispatch."),
		running:     reg.Gauge("mmt_serve_jobs_running", "Flights currently executing on the pool."),
		streams:     reg.Gauge("mmt_serve_streams_active", "Open SSE job streams."),
		reqLatency:  reg.Histogram("mmt_serve_request_latency_seconds", "HTTP request handling latency."),
		jobLatency:  reg.Histogram("mmt_serve_job_latency_seconds", "Job latency, submission to terminal state."),
	}
}
