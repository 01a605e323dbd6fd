package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/runner"
)

func startCacheServer(t *testing.T, opts CacheServerOptions) (*CacheServer, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := NewCacheServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

// runPool builds a one-off runner pool, runs the spec once, and returns
// the outcome source counters.
func runPool(t *testing.T, opts runner.Options) (fromCache bool, executed int) {
	t.Helper()
	opts.Workers = 1
	var comp runner.Completion
	done := make(chan struct{})
	opts.OnComplete = func(c runner.Completion) {
		comp = c
		close(done)
	}
	p, err := runner.New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	task, err := cheapSpec(2000).Task()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Do(task); err != nil {
		t.Fatal(err)
	}
	<-done
	return comp.FromCache, p.Summary().Executed
}

// cacheStats GETs a cache server's /v1/stats.
func cacheStats(t *testing.T, base string) CacheStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

// cacheStatsMatch checks every CacheStats count against the series it
// reads: /v1/stats and /metrics are one set of instruments.
func cacheStatsMatch(t *testing.T, cs CacheStats, reg *obs.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	for name, got := range map[string]uint64{
		"mmt_cached_hits_total":     cs.Hits,
		"mmt_cached_misses_total":   cs.Misses,
		"mmt_cached_stores_total":   cs.Stores,
		"mmt_cached_rejects_total":  cs.Rejects,
		"mmt_cache_evictions_total": cs.Evictions,
	} {
		if snap[name] != got {
			t.Errorf("/v1/stats reports %d, %s = %v", got, name, snap[name])
		}
	}
	for name, got := range map[string]int64{
		"mmt_cached_entries": int64(cs.Entries),
		"mmt_cached_bytes":   cs.Bytes,
	} {
		if snap[name] != got {
			t.Errorf("/v1/stats reports %d, %s = %v", got, name, snap[name])
		}
	}
}

// TestCacheServerRoundTrip checks the wire contract: a stored entry comes
// back byte-identical, unknown keys 404, and invalid blobs are refused
// with 400 so a bad client cannot poison the shared store.
func TestCacheServerRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	fl := flight.New("mmtcached-test", 64, nil)
	srv, hs := startCacheServer(t, CacheServerOptions{Metrics: reg,
		Log: slog.New(flight.NewLogHandler(slog.NewTextHandler(io.Discard, nil), fl))})
	cli := NewCacheClient(hs.URL, nil)
	ctx := context.Background()

	task, err := cheapSpec(2000).Task()
	if err != nil {
		t.Fatal(err)
	}
	key, err := task.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Miss first.
	if _, ok, err := cli.Load(ctx, key); err != nil || ok {
		t.Fatalf("empty store: Load = ok=%v err=%v, want miss", ok, err)
	}

	// A real entry: simulate once through a pool that writes through.
	if _, executed := runPool(t, runner.Options{CacheDir: t.TempDir(), RemoteCache: cli}); executed != 1 {
		t.Fatalf("seed pool executed %d simulations, want 1", executed)
	}
	raw, ok, err := cli.Load(ctx, key)
	if err != nil || !ok {
		t.Fatalf("after write-through: Load = ok=%v err=%v, want hit", ok, err)
	}

	// Stored entry is served verbatim.
	again, ok, err := cli.Load(ctx, key)
	if err != nil || !ok || !bytes.Equal(raw, again) {
		t.Fatal("repeated Load returned a different blob")
	}

	// Poison attempts bounce.
	if err := cli.Store(ctx, key, []byte("{not json")); err == nil {
		t.Error("Store accepted a torn blob")
	}
	if err := cli.Store(ctx, "nothex", raw); err == nil {
		t.Error("Store accepted a malformed key")
	}
	cs := cacheStats(t, hs.URL)
	if cs.Hits != 2 || cs.Stores != 1 || cs.Rejects == 0 {
		t.Errorf("stats = %+v, want 2 hits, 1 store, some rejects", cs)
	}
	cacheStatsMatch(t, cs, reg)
	if srv.Store().Len() != 1 {
		t.Errorf("store holds %d entries, want 1", srv.Store().Len())
	}
	// Each reject is a warning, which a flight-wrapped logger lands in the ring.
	var warned int
	for _, e := range fl.Entries() {
		if e.Kind == flight.KindLog && strings.Contains(e.Name, "cache entry rejected") && int(e.Arg)-8 == int(slog.LevelWarn) {
			warned++
		}
	}
	if warned != int(cs.Rejects) {
		t.Errorf("%d reject warnings in the flight ring, want %d", warned, cs.Rejects)
	}
}

// TestCacheServerCountsOpenTrim: a server opened over a directory larger
// than its byte budget trims it at once, and /v1/stats and
// mmt_cache_evictions_total both count that trim.
func TestCacheServerCountsOpenTrim(t *testing.T) {
	dir := t.TempDir()
	p, err := runner.New(context.Background(), runner.Options{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		task, err := cheapSpec(2000 + 16*i).Task()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Do(task); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}

	reg := obs.NewRegistry()
	_, hs := startCacheServer(t, CacheServerOptions{Dir: dir, MaxBytes: total - 1, Metrics: reg})
	cs := cacheStats(t, hs.URL)
	if cs.Evictions == 0 {
		t.Fatalf("opening %d bytes under a %d-byte budget evicted nothing", total, total-1)
	}
	cacheStatsMatch(t, cs, reg)
}

// TestColdRestartServedFromRemote is the acceptance scenario: node A
// simulates and writes through to mmtcached; node B — a cold restart
// with an empty local cache — serves the same task from the remote tier
// without re-simulating.
func TestColdRestartServedFromRemote(t *testing.T) {
	_, hs := startCacheServer(t, CacheServerOptions{})
	cli := NewCacheClient(hs.URL, nil)

	if fromCache, executed := runPool(t, runner.Options{CacheDir: t.TempDir(), RemoteCache: cli}); fromCache || executed != 1 {
		t.Fatalf("warm-up pool: fromCache=%v executed=%d, want a fresh simulation", fromCache, executed)
	}
	// Fresh local cache dir = a cold node. Same remote tier.
	fromCache, executed := runPool(t, runner.Options{CacheDir: t.TempDir(), RemoteCache: cli})
	if !fromCache || executed != 0 {
		t.Fatalf("cold node: fromCache=%v executed=%d, want a remote cache hit and zero simulations", fromCache, executed)
	}
}
