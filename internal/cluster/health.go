package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mmt/internal/serve"
)

// probeLoop re-probes the fleet on the configured cadence and sweeps
// expired placements between rounds.
func (rt *Router) probeLoop() {
	defer rt.probers.Done()
	ticker := time.NewTicker(rt.opts.ProbeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeAll()
			rt.sweepPlacements()
		}
	}
}

// probeAll probes every backend concurrently and refreshes the node-state
// gauges.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probeOne(b)
		}(b)
	}
	wg.Wait()
	rt.countNodes()
}

// countNodes tallies the backends by probed state and refreshes the
// node-state gauges with the tally, so /v1/healthz and /metrics agree.
func (rt *Router) countNodes() (healthy, draining, down int) {
	for _, b := range rt.backends {
		switch st, _ := b.snapshotState(); st {
		case stateHealthy:
			healthy++
		case stateDraining:
			draining++
		default:
			down++
		}
	}
	rt.met.healthy.Set(int64(healthy))
	rt.met.draining.Set(int64(draining))
	rt.met.down.Set(int64(down))
	return healthy, draining, down
}

// probeOne classifies one backend — healthy, draining (the node answered
// /v1/healthz with a draining status, i.e. it took a SIGTERM and is
// finishing in-flight work) or down — and refreshes its stats from
// /v1/stats: the worker count, and the node's own count of unfinished
// flights, which bounds the router's outstanding count for it.
func (rt *Router) probeOne(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
	defer cancel()
	state := stateDown
	var perr error
	h, err := rt.fetchHealth(ctx, b)
	switch {
	case err != nil:
		perr = err
	case h.Status == "draining":
		state = stateDraining
	case h.Status == "ok":
		state = stateHealthy
	default:
		perr = fmt.Errorf("healthz status %q", h.Status)
	}

	if state != stateDown {
		if s, err := rt.statsRequest(ctx, b); err == nil {
			b.setStats(s)
			// Jobs nobody streams through the router stop counting here.
			b.mu.Lock()
			b.outstanding = min(b.outstanding, s.Admitted)
			b.mu.Unlock()
		}
	}

	b.mu.Lock()
	prev := b.state
	b.state = state
	if perr != nil {
		b.lastErr = perr.Error()
	} else {
		b.lastErr = ""
	}
	b.mu.Unlock()

	if prev == stateHealthy && state != stateHealthy {
		// The node left the routable set: unpin its keys so the next
		// submission of each re-routes to a ring successor immediately
		// instead of waiting out the placement TTL.
		rt.unplaceBackend(b)
	}
	if state == stateDown {
		rt.met.probeFailures.Inc()
	}
}

// fetchHealth GETs a backend's /v1/healthz without retries. A 503 body
// still decodes — that is how a draining node announces itself.
func (rt *Router) fetchHealth(ctx context.Context, b *backend) (serve.Health, error) {
	var h serve.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.node.URL+"/v1/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("decoding healthz (%d): %w", resp.StatusCode, err)
	}
	return h, nil
}

// statsRequest GETs a backend's /v1/stats without retries.
func (rt *Router) statsRequest(ctx context.Context, b *backend) (serve.Stats, error) {
	var s serve.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.node.URL+"/v1/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats returned %d", resp.StatusCode)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&s)
	return s, err
}

// fetchStats returns a fresh stats snapshot for the fleet fan-out,
// falling back to the last probed snapshot on error.
func (rt *Router) fetchStats(ctx context.Context, b *backend) serve.Stats {
	rctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	if s, err := rt.statsRequest(rctx, b); err == nil {
		b.setStats(s)
		return s
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// unplaceBackend drops every placement pinned to b.
func (rt *Router) unplaceBackend(b *backend) {
	rt.mu.Lock()
	for key, pl := range rt.placements {
		if pl.b == b {
			delete(rt.placements, key)
		}
	}
	rt.met.placements.Set(int64(len(rt.placements)))
	rt.mu.Unlock()
}

// sweepPlacements expires placements past their TTL.
func (rt *Router) sweepPlacements() {
	now := time.Now()
	rt.mu.Lock()
	for key, pl := range rt.placements {
		if now.Sub(pl.at) >= rt.opts.PlacementTTL {
			delete(rt.placements, key)
		}
	}
	rt.met.placements.Set(int64(len(rt.placements)))
	rt.mu.Unlock()
}
