package cli

import (
	"errors"
	"fmt"
	"io"
	"os"

	"mmt/internal/cluster"
)

// RunCached is the mmtcached command: the content-addressed remote result
// cache the fleet's persistent caches tier into. It serves the /v1/cache
// API until SIGINT/SIGTERM, then exits; entries live on disk, so restarts
// are warm.
func RunCached(args []string, stdout io.Writer) error {
	return runCached(args, stdout, os.Stderr, nil)
}

// runCached is RunCached with the progress stream exposed and an optional
// ready callback receiving the bound address (both for tests).
func runCached(args []string, stdout, progress io.Writer, ready func(addr string)) error {
	d := newDaemon("mmtcached", stdout, "127.0.0.1:8380", "listen address for the cache API")
	var (
		dir      = d.String("dir", "", "entry directory (required)")
		maxBytes = d.Int64("max-bytes", 0, "byte budget; least-recently-used entries are evicted beyond it (0 = unlimited)")
	)
	if done, err := d.parse(args, progress); done || err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required (entry directory)")
	}

	return d.serve(ready, func(env daemonEnv) (*node, error) {
		srv, err := cluster.NewCacheServer(cluster.CacheServerOptions{
			Dir: *dir, MaxBytes: *maxBytes,
			Metrics: env.Metrics, Tracer: env.Tracer, Log: env.Log,
		})
		if err != nil {
			return nil, err
		}
		store := srv.Store()
		return &node{
			Handler: srv,
			banner: fmt.Sprintf("mmtcached %s serving on http://%s/v1/cache (%d entries, %d bytes)",
				Version(), env.Addr, store.Len(), store.Bytes()),
			bye: func() string {
				return fmt.Sprintf("mmtcached: %d entries, %d bytes on disk; bye", store.Len(), store.Bytes())
			},
		}, nil
	})
}
