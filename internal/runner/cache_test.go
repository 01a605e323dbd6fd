package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/sim"
)

// testEntry builds a valid raw cache entry for a synthetic key, padded to
// roughly size bytes so eviction tests can reason about the byte budget.
func testEntry(t *testing.T, i, size int) (key string, raw []byte) {
	t.Helper()
	sum := sha256.Sum256([]byte(fmt.Sprintf("cache-test-%d", i)))
	key = hex.EncodeToString(sum[:])
	out := &sim.Outcome{Result: &sim.Result{App: strings.Repeat("x", size), Stats: &core.Stats{}}}
	oraw, err := sim.MarshalOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(entry{Schema: sim.KeySchema, Key: key, Task: "test", Outcome: oraw})
	if err != nil {
		t.Fatal(err)
	}
	return key, raw
}

func TestCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	k0, r0 := testEntry(t, 0, 64)
	budget := int64(3*len(r0) + len(r0)/2) // room for ~3 entries
	evicted := &obs.Counter{}
	c, err := OpenCache(dir, budget, evicted)
	if err != nil {
		t.Fatal(err)
	}

	keys := []string{k0}
	if err := c.PutRaw(k0, r0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		k, r := testEntry(t, i, 64)
		keys = append(keys, k)
		// Touch entry 0 before each insert: it stays hot and must survive.
		if _, ok := c.GetRaw(k0); !ok {
			t.Fatalf("hot entry evicted before insert %d", i)
		}
		if err := c.PutRaw(k, r); err != nil {
			t.Fatal(err)
		}
	}
	if evicted.Value() == 0 {
		t.Fatalf("no evictions under a %d-byte budget after 5 inserts (bytes=%d)", budget, c.Bytes())
	}
	if c.Evictions() != evicted.Value() {
		t.Errorf("caller's counter reads %d evictions, cache reports %d", evicted.Value(), c.Evictions())
	}
	if c.Bytes() > budget {
		t.Errorf("cache holds %d bytes, budget %d", c.Bytes(), budget)
	}
	if _, ok := c.GetRaw(k0); !ok {
		t.Error("most-recently-used entry was evicted")
	}
	// The coldest non-touched entry (1) must be gone.
	if _, ok := c.GetRaw(keys[1]); ok {
		t.Error("least-recently-used entry survived eviction")
	}
}

func TestCacheReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0, &obs.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 3; i++ {
		k, r := testEntry(t, i, 32)
		if err := c.PutRaw(k, r); err != nil {
			t.Fatal(err)
		}
		total += int64(len(r))
	}
	// Stray files are ignored by the index.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCache(dir, 0, &obs.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 || re.Bytes() != total {
		t.Errorf("reopened cache indexed %d entries / %d bytes, want 3 / %d", re.Len(), re.Bytes(), total)
	}
	// Reopening under a tight budget trims immediately, and the trim is
	// counted into the caller's counter.
	evicted := &obs.Counter{}
	tight, err := OpenCache(dir, total-1, evicted)
	if err != nil {
		t.Fatal(err)
	}
	if evicted.Value() == 0 || tight.Evictions() != evicted.Value() || tight.Bytes() > total-1 {
		t.Errorf("tight reopen: counter %d, cache reports %d evictions, %d bytes (budget %d)",
			evicted.Value(), tight.Evictions(), tight.Bytes(), total-1)
	}
}

func TestCachePutRawRejectsBadEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0, &obs.Counter{})
	if err != nil {
		t.Fatal(err)
	}
	k, r := testEntry(t, 0, 16)
	if err := c.PutRaw("not-a-key", r); err == nil {
		t.Error("malformed key accepted")
	}
	other, _ := testEntry(t, 1, 16)
	if err := c.PutRaw(other, r); err == nil {
		t.Error("entry stored under a key it does not embed")
	}
	if err := c.PutRaw(k, []byte("{")); err == nil {
		t.Error("torn JSON accepted")
	}
	var e entry
	if err := json.Unmarshal(r, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = sim.KeySchema + 1
	stale, _ := json.Marshal(e)
	if err := c.PutRaw(k, stale); err == nil {
		t.Error("wrong-schema entry accepted")
	}
	if c.Len() != 0 {
		t.Errorf("rejected entries left %d index records", c.Len())
	}
	if err := c.PutRaw(k, r); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	got, ok := c.GetRaw(k)
	if !ok || string(got) != string(r) {
		t.Error("round trip lost the entry bytes")
	}
}
