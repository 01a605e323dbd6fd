package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"mmt/internal/cluster"
)

// RunRouter is the mmtrouter command: the fleet coordinator that
// consistent-hashes job submissions onto a ring of mmtserved backends so
// per-node single-flight dedup becomes fleet-wide dedup. It serves the
// same /v1 job API as mmtserved until SIGINT/SIGTERM, then exits.
func RunRouter(args []string, stdout io.Writer) error {
	return runRouter(args, stdout, os.Stderr, nil)
}

// runRouter is RunRouter with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runRouter(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	d := newDaemon("mmtrouter", stdout, "127.0.0.1:8378", "listen address for the fleet job API")
	var (
		backends = d.String("backends", "", "comma-separated mmtserved base URLs, each with an optional *weight suffix (e.g. http://10.0.0.1:8377*2,http://10.0.0.2:8377)")

		probeEvery   = d.Duration("probe-every", time.Second, "health/stats probe cadence")
		probeTimeout = d.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		placementTTL = d.Duration("placement-ttl", 5*time.Minute, "how long a key stays pinned to the node that received it")
	)
	if done, err := d.parse(args, progress); done || err != nil {
		return err
	}
	if *backends == "" {
		return errors.New("-backends is required (comma-separated mmtserved URLs)")
	}
	nodes, err := cluster.ParseNodes(*backends)
	if err != nil {
		return err
	}

	return d.serve(ready, func(env daemonEnv) (*node, error) {
		rt, err := cluster.NewRouter(cluster.RouterOptions{
			Nodes:        nodes,
			ProbeEvery:   *probeEvery,
			ProbeTimeout: *probeTimeout,
			PlacementTTL: *placementTTL,
			Metrics:      env.Metrics, Tracer: env.Tracer, Log: env.Log,
		})
		if err != nil {
			return nil, err
		}
		return &node{
			Handler: rt,
			banner: fmt.Sprintf("mmtrouter %s routing on http://%s/v1 across %d backends",
				Version(), env.Addr, len(nodes)),
			close: rt.Close,
			bye:   func() string { return "mmtrouter: drained, bye" },
		}, nil
	})
}
