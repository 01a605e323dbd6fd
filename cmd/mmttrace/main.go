// Command mmttrace stitches one trace's spans from every process in an
// mmt fleet — the router, each mmtserved node it reports, and any extra
// -sources such as an mmtcached — into a single tree, and renders a text
// waterfall of per-hop latency: router placement, node admission and
// queueing, dedup joins, cache probes, and the simulated build/run phases.
//
// Every daemon keeps its finished spans in a bounded in-memory ring served
// at GET /v1/spans; mmttrace is just the fetch-and-stitch client.
//
// Usage:
//
//	mmttrace                                   # list recent traces fleet-wide
//	mmttrace -slowest 10                       # the 10 slowest instead
//	mmttrace -trace load-5-0                   # stitched waterfall for one trace
//	mmttrace -trace load-5-0 -chrome t.json    # plus a Perfetto-ready timeline
//	mmttrace -server http://host:8378 -sources http://host:8380
//	mmttrace -from-dump /tmp/mmt-flight-*.json # render a flight dump
//
// A deduplicated submission's trace carries a joiner span linking to the
// creator's trace; mmttrace follows such links, so the waterfall shows the
// execution that actually produced the joined result.
//
// A node killed with SIGQUIT writes its flight ring, span rows included,
// to disk first; -from-dump renders that file, so the last seconds before
// the kill stay readable with no process left to query.
package main

import (
	"fmt"
	"os"

	"mmt/internal/cli"
)

func main() {
	if err := cli.RunTrace(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmttrace:", err)
		os.Exit(1)
	}
}
