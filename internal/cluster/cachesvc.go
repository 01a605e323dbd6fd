package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
	"mmt/internal/runner"
)

// maxEntryBytes bounds one cache entry on the wire. Outcomes are small
// JSON documents (statistics plus an optional attribution profile); 16MB
// leaves an order of magnitude of headroom.
const maxEntryBytes = 16 << 20

// CacheServerOptions configures a CacheServer.
type CacheServerOptions struct {
	// Dir is the entry directory. Required.
	Dir string
	// MaxBytes caps the store's disk footprint with LRU eviction
	// (0 = unlimited).
	MaxBytes int64
	// Metrics holds the mmt_cached_* instruments and is served at GET
	// /metrics. Nil means a private registry (and no /metrics route);
	// /v1/stats counts either way.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a span per traced get/put — only for
	// requests that arrive with a traceparent header, so untraced traffic
	// (warm-up scripts, curl) does not fill the ring — and serves them at
	// GET /v1/spans.
	Tracer *span.Tracer
	// Log, when non-nil, receives request-scoped structured log lines
	// stamped with trace and span ids; rejected entries log a warning.
	// Nil discards.
	Log *slog.Logger
}

// CacheServer is the content-addressed remote result cache behind
// cmd/mmtcached: the runner's persistent cache tiers into it, so every
// node in a fleet — and every CI run pointed at the same service — shares
// one pool of simulated outcomes. Entries are the disk-cache format
// verbatim; PutRaw validation means a misbehaving client cannot poison
// the store.
//
// The HTTP surface:
//
//	GET  /v1/cache/{key}  fetch an entry (200 raw blob | 404)
//	PUT  /v1/cache/{key}  store an entry (204 | 400 on invalid blobs)
//	GET  /v1/healthz      liveness
//	GET  /v1/stats        hit/miss/store counters, entry count, bytes, evictions
type CacheServer struct {
	store  *runner.Cache
	mux    *http.ServeMux
	met    *cacheMetrics
	tracer *span.Tracer
	log    *slog.Logger
	start  time.Time
}

// cacheMetrics are the cache service instruments. They are the service's
// only counts: /v1/stats reads them.
type cacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	stores    *obs.Counter
	rejects   *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	bytes     *obs.Gauge
}

// NewCacheServer opens the store and builds the handler.
func NewCacheServer(opts CacheServerOptions) (*CacheServer, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := &cacheMetrics{
		hits:      reg.Counter("mmt_cached_hits_total", "Entry fetches that hit."),
		misses:    reg.Counter("mmt_cached_misses_total", "Entry fetches that missed."),
		stores:    reg.Counter("mmt_cached_stores_total", "Entries stored."),
		rejects:   reg.Counter("mmt_cached_rejects_total", "Invalid entries refused."),
		evictions: runner.EvictionCounter(reg),
		entries:   reg.Gauge("mmt_cached_entries", "Entries currently stored."),
		bytes:     reg.Gauge("mmt_cached_bytes", "Bytes currently stored."),
	}
	// The store counts into met from the start, so an open-time trim of an
	// over-budget directory is exported too.
	store, err := runner.OpenCache(opts.Dir, opts.MaxBytes, met.evictions)
	if err != nil {
		return nil, err
	}
	s := &CacheServer{store: store, met: met, tracer: opts.Tracer, log: opts.Log, start: time.Now()}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{key}", s.handleGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handlePut)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.tracer != nil {
		mux.Handle("GET /v1/spans", s.tracer)
	}
	if opts.Metrics != nil {
		mux.Handle("GET /metrics", opts.Metrics)
	}
	s.mux = mux
	return s, nil
}

// startSpan opens a hop span for a request that arrived with a valid
// trace context; nil (a no-op) otherwise.
func (s *CacheServer) startSpan(r *http.Request, name string) *span.Span {
	if s.tracer == nil {
		return nil
	}
	parent := span.Extract(r.Header)
	if !parent.Valid() {
		return nil
	}
	sp := s.tracer.Start(parent, name)
	sp.SetAttr("key", short(r.PathValue("key")))
	return sp
}

// short truncates a cache key for logs and span attributes — the 8-char
// prefix is what every other surface (errors, mmtload) prints.
func short(key string) string {
	if len(key) > 8 {
		return key[:8]
	}
	return key
}

// ServeHTTP serves the cache API.
func (s *CacheServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
	s.met.entries.Set(int64(s.store.Len()))
	s.met.bytes.Set(s.store.Bytes())
}

// Store exposes the underlying cache (entry count and bytes feed the
// daemon's shutdown report).
func (s *CacheServer) Store() *runner.Cache { return s.store }

func (s *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	sp := s.startSpan(r, "cached.get")
	defer sp.End()
	raw, ok := s.store.GetRaw(key)
	s.log.Debug("cache get", "key", short(key), "hit", ok,
		"trace", sp.Context().TraceID, "span", sp.Context().SpanID)
	if !ok {
		sp.SetAttr("result", "miss")
		s.met.misses.Inc()
		writeError(w, http.StatusNotFound, 0, "no entry for key %.8s", key)
		return
	}
	sp.SetAttr("result", "hit")
	s.met.hits.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw) //nolint:errcheck // client went away; nothing to do
}

func (s *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	sp := s.startSpan(r, "cached.put")
	defer sp.End()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		sp.SetAttr("result", "rejected")
		s.reject(w, http.StatusBadRequest, "reading entry: %v", err)
		return
	}
	if err := s.store.PutRaw(key, raw); err != nil {
		sp.SetAttr("result", "rejected")
		s.reject(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp.SetAttr("result", "stored")
	s.log.Info("entry stored", "key", short(key), "bytes", len(raw),
		"trace", sp.Context().TraceID, "span", sp.Context().SpanID)
	s.met.stores.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *CacheServer) reject(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.met.rejects.Inc()
	s.log.Warn("cache entry rejected", "error", msg)
	writeError(w, status, 0, "%s", msg)
}

func (s *CacheServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// CacheStats is the GET /v1/stats body.
type CacheStats struct {
	UptimeMS  int64  `json:"uptime_ms"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Rejects   uint64 `json:"rejects"`
}

func (s *CacheServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CacheStats{
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Entries:   s.store.Len(),
		Bytes:     s.store.Bytes(),
		Evictions: s.store.Evictions(),
		Hits:      s.met.hits.Value(),
		Misses:    s.met.misses.Value(),
		Stores:    s.met.stores.Value(),
		Rejects:   s.met.rejects.Value(),
	})
}
