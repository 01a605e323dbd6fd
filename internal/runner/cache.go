package runner

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mmt/internal/obs"
	"mmt/internal/sim"
)

// Cache is the persistent result cache: one JSON file per task key under
// the cache directory. Writes go through a temp file and an atomic
// rename, so a killed run never leaves a torn entry; reads validate the
// schema version and the embedded key and delete anything corrupt or
// mismatched (the pool then simply re-simulates).
//
// With a non-zero byte budget the cache evicts least-recently-used
// entries once the budget is exceeded, so long soaks — and the remote
// cache node cmd/mmtcached builds on this same type — never grow disk
// unboundedly. Recency is tracked in memory (file mtime orders entries at
// open); the entry most recently written or read is never evicted, even
// when it alone exceeds the budget.
//
// The raw Get/Put surface exposes entries as opaque validated blobs: it
// is the wire format of the remote shared cache tier (internal/cluster),
// which is therefore byte-identical to the local disk format.
type Cache struct {
	dir string
	max int64 // byte budget; 0 = unlimited

	evictions *obs.Counter // one per entry the byte budget evicted

	mu    sync.Mutex
	index map[string]*list.Element // key -> lru element
	lru   *list.List               // of *centry; front = most recently used
	bytes int64
}

// centry is one tracked cache file.
type centry struct {
	key  string
	size int64
}

// entry is the on-disk (and remote-cache wire) format. Task is a human-
// readable label for people inspecting the cache directory; only Schema,
// Key and Outcome are load-bearing. Outcome is the canonical encoding
// from sim.MarshalOutcome — the same bytes the serving API ships — kept
// raw here so the envelope never re-interprets it.
type entry struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Task    string          `json:"task"`
	Outcome json.RawMessage `json:"outcome"`
}

// OpenCache opens (creating if needed) a cache directory with the given
// byte budget (0 = unlimited). Existing entries are indexed oldest-first
// by file modification time and trimmed to the budget immediately. Every
// eviction, the open-time trim included, is counted into evictions (see
// EvictionCounter).
func OpenCache(dir string, maxBytes int64, evictions *obs.Counter) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	c := &Cache{
		dir:       dir,
		max:       maxBytes,
		evictions: evictions,
		index:     make(map[string]*list.Element),
		lru:       list.New(),
	}
	if err := c.scan(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// scan indexes the directory's entry files, oldest modification first so
// the LRU list's back holds the stalest entry.
func (c *Cache) scan() error {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("runner: scanning cache dir: %w", err)
	}
	type onDisk struct {
		key  string
		size int64
		mod  int64
	}
	var files []onDisk
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		key := strings.TrimSuffix(name, ".json")
		if !validCacheKey(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, onDisk{key: key, size: info.Size(), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		c.index[f.key] = c.lru.PushFront(&centry{key: f.key, size: f.size})
		c.bytes += f.size
	}
	return nil
}

// validCacheKey reports whether key is a hex SHA-256 — the only shape
// task keys take, and (for the remote cache service) the guard against
// path-traversal names.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// Len returns the number of indexed entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the indexed entries' total size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the value of the counter OpenCache was given.
func (c *Cache) Evictions() uint64 { return c.evictions.Value() }

// path returns the entry file for a key. Keys are hex SHA-256, so they are
// always safe file names.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// GetRaw returns the raw entry blob for key and bumps its recency. The
// blob is returned as stored; use decodeEntry (or the typed load) to
// validate it.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	if !validCacheKey(key) {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		c.dropLocked(key)
		return nil, false
	}
	c.touchLocked(key, int64(len(b)))
	return b, true
}

// PutRaw validates and stores a raw entry blob under key, then enforces
// the byte budget. The blob must be a well-formed entry whose embedded
// key and schema match — the remote cache service calls this directly, so
// a misbehaving client cannot poison the store.
func (c *Cache) PutRaw(key string, raw []byte) error {
	if !validCacheKey(key) {
		return fmt.Errorf("runner: cache key %q is not a hex SHA-256", key)
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("runner: cache entry for %.8s: %w", key, err)
	}
	if e.Schema != sim.KeySchema {
		return fmt.Errorf("runner: cache entry for %.8s has schema %d, want %d", key, e.Schema, sim.KeySchema)
	}
	if e.Key != key {
		return fmt.Errorf("runner: cache entry embeds key %.8s, stored under %.8s", e.Key, key)
	}
	if _, err := sim.UnmarshalOutcome(e.Outcome); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeLocked(key, raw); err != nil {
		return err
	}
	c.touchLocked(key, int64(len(raw)))
	c.evictLocked()
	return nil
}

// touchLocked records key as most-recently-used with the given size
// (caller holds mu).
func (c *Cache) touchLocked(key string, size int64) {
	if el, ok := c.index[key]; ok {
		ce := el.Value.(*centry)
		c.bytes += size - ce.size
		ce.size = size
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&centry{key: key, size: size})
	c.bytes += size
}

// dropLocked removes key from the index without touching disk (caller
// holds mu; used when the file is already gone or about to be removed).
func (c *Cache) dropLocked(key string) {
	if el, ok := c.index[key]; ok {
		c.bytes -= el.Value.(*centry).size
		c.lru.Remove(el)
		delete(c.index, key)
	}
}

// removeLocked deletes an entry's file and index record (caller holds mu).
func (c *Cache) removeLocked(key string) {
	os.Remove(c.path(key))
	c.dropLocked(key)
}

// evictLocked enforces the byte budget by evicting least-recently-used
// entries (caller holds mu). The most recent entry is never evicted, so a
// single oversized result still caches.
func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.bytes > c.max && c.lru.Len() > 1 {
		back := c.lru.Back()
		c.removeLocked(back.Value.(*centry).key)
		c.evictions.Inc()
	}
}

// writeLocked writes an entry file atomically (temp file + rename; caller
// holds mu).
func (c *Cache) writeLocked(key string, b []byte) error {
	f, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// encodeEntry renders the canonical entry blob for a task's outcome — the
// format both the disk cache and the remote cache tier store.
func encodeEntry(key string, t sim.Task, out *sim.Outcome) ([]byte, error) {
	raw, err := sim.MarshalOutcome(out)
	if err != nil {
		return nil, err
	}
	return json.Marshal(entry{Schema: sim.KeySchema, Key: key, Task: t.Name(), Outcome: raw})
}

// decodeEntry validates a raw entry blob against the key and task it is
// supposed to resolve and returns the decoded outcome.
func decodeEntry(b []byte, key string, t sim.Task) (*sim.Outcome, error) {
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("runner: cache entry for %.8s: %w", key, err)
	}
	if e.Schema != sim.KeySchema || e.Key != key {
		return nil, fmt.Errorf("runner: cache entry for %.8s has schema %d key %.8s", key, e.Schema, e.Key)
	}
	out, err := sim.UnmarshalOutcome(e.Outcome)
	if err != nil {
		return nil, err
	}
	if !shapeMatches(out, t) {
		return nil, fmt.Errorf("runner: cache entry for %.8s does not match the task's outcome kind", key)
	}
	return out, nil
}

// load returns the cached outcome and whether it hit; invalidated reports
// that a corrupt or mismatched entry was found and deleted.
func (c *Cache) load(key string, t sim.Task) (out *sim.Outcome, ok, invalidated bool) {
	b, found := c.GetRaw(key)
	if !found {
		return nil, false, false
	}
	out, err := decodeEntry(b, key, t)
	if err != nil {
		c.mu.Lock()
		c.removeLocked(key)
		c.mu.Unlock()
		return nil, false, true
	}
	return out, true, false
}

// shapeMatches checks the decoded outcome against the task's expected
// kind (the codec already validated internal consistency).
func shapeMatches(out *sim.Outcome, t sim.Task) bool {
	if t.Profile {
		return out.Profile != nil
	}
	return out.Result != nil
}

// store writes an entry and enforces the byte budget, returning the blob
// it wrote so callers can forward the same bytes to a remote tier.
func (c *Cache) store(key string, t sim.Task, out *sim.Outcome) ([]byte, error) {
	b, err := encodeEntry(key, t, out)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.writeLocked(key, b); err != nil {
		return nil, err
	}
	c.touchLocked(key, int64(len(b)))
	c.evictLocked()
	return b, nil
}

// RemoteCache is a shared result-cache tier behind the local disk cache:
// the pool checks it on a local miss and writes through on store, so any
// node in a fleet — and any CI run pointed at the same service — gets
// warm hits. Blobs are raw cache entries (the disk format); the pool
// validates them on load, so a corrupt or stale tier degrades into a
// miss, never a wrong result. internal/cluster.CacheClient is the HTTP
// implementation talking to cmd/mmtcached.
type RemoteCache interface {
	// Load fetches the raw entry for key; ok reports a hit. Errors are
	// treated as misses by the pool.
	Load(ctx context.Context, key string) (raw []byte, ok bool, err error)
	// Store writes the raw entry for key. Best-effort: the pool logs and
	// continues on error.
	Store(ctx context.Context, key string, raw []byte) error
}
