package cluster

import "mmt/internal/obs"

// routerMetrics are the router's instruments, registered under
// mmt_cluster_*. They are the router's only counts: /v1/cluster and
// /v1/healthz read them.
type routerMetrics struct {
	routed        *obs.Counter
	rerouted      *obs.Counter
	stolen        *obs.Counter
	errors        *obs.Counter
	probeFailures *obs.Counter

	healthy    *obs.Gauge
	draining   *obs.Gauge
	down       *obs.Gauge
	placements *obs.Gauge

	submitLatency *obs.Histogram
}

// newRouterMetrics registers the router's instruments in reg, or in a
// private registry when reg is nil.
func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &routerMetrics{
		routed:        reg.Counter("mmt_cluster_routed_total", "Submissions forwarded to a backend."),
		rerouted:      reg.Counter("mmt_cluster_rerouted_total", "Placements that skipped a draining or down ring owner."),
		stolen:        reg.Counter("mmt_cluster_stolen_total", "Submissions diverted off a busy owner to a node with a free worker."),
		errors:        reg.Counter("mmt_cluster_errors_total", "Forwarding and proxy failures."),
		probeFailures: reg.Counter("mmt_cluster_probe_failures_total", "Probe rounds that classified a node as down."),
		healthy:       reg.Gauge("mmt_cluster_nodes_healthy", "Backends currently routable."),
		draining:      reg.Gauge("mmt_cluster_nodes_draining", "Backends finishing in-flight work after SIGTERM."),
		down:          reg.Gauge("mmt_cluster_nodes_down", "Backends failing health probes."),
		placements:    reg.Gauge("mmt_cluster_placements", "Live key-to-node placement pins."),
		submitLatency: reg.Histogram("mmt_cluster_submit_latency_seconds", "Submission forwarding latency, including placement."),
	}
}
