// Command mmtrouter is the fleet coordinator: a router that speaks the
// same /v1 job API as mmtserved and consistent-hashes every submission's
// content-addressed cache key onto a ring of backends. Identical
// submissions land on the same node, so per-node single-flight dedup
// becomes fleet-wide dedup — the MMT fetch-once idea at cluster scale.
//
// Beyond routing, the coordinator runs node lifecycle: it probes every
// backend's /v1/healthz and /v1/stats, stops routing new keys to draining
// or down nodes (jobs in flight on a draining node stay reachable through
// the router until the drain finishes), and sends a new key to a node
// with a free worker when every worker of its owner is taken, pinning
// each key's placement so dedup holds even while stealing.
//
// The API (see internal/cluster):
//
//	POST /v1/jobs             submit a job (routed by task cache key)
//	GET  /v1/jobs/{id}        poll a job (proxied to its node)
//	GET  /v1/jobs/{id}/stream follow a job over SSE (proxied)
//	GET  /v1/healthz          router liveness + fleet membership counts
//	GET  /v1/stats            fleet-aggregated serving stats
//	GET  /v1/cluster          per-node breakdown, routing counters, dedup ratio
//
// Usage:
//
//	mmtrouter -backends http://10.0.0.1:8377,http://10.0.0.2:8377
//	mmtrouter -backends http://big:8377*4,http://small:8377 -addr :8378
//	mmtrouter -backends ... -probe-every 500ms -placement-ttl 1m
package main

import (
	"fmt"
	"os"

	"mmt/internal/cli"
)

func main() {
	if err := cli.RunRouter(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmtrouter:", err)
		os.Exit(1)
	}
}
