package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64} } // 8 sets

func TestConfigValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 1000, Ways: 2, LineBytes: 64},
		{SizeBytes: 1024, Ways: 2, LineBytes: 48},
		{SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
}

// TestNewAllocatesOneLineArray: every set's ways live in one array, so
// building a level costs the same few allocations however many sets it
// has (the default L2 has 8192).
func TestNewAllocatesOneLineArray(t *testing.T) {
	l2 := Config{SizeBytes: 4 << 20, Ways: 8, LineBytes: 64}
	if allocs := testing.AllocsPerRun(10, func() { New(l2) }); allocs > 2 {
		t.Errorf("New allocates %v times for %d sets", allocs, l2.sets())
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := New(small())
	if c.Access(0x1000, false).Hit {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false).Hit {
		t.Error("second access missed")
	}
	// Same line, different offset.
	if !c.Access(0x103f, false).Hit {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040, false).Hit {
		t.Error("next line hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := New(small()) // 2 ways, 8 sets: lines mapping to set 0 are multiples of 64*8=512
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	res := c.Access(d, false)
	if res.Hit {
		t.Error("conflict access hit")
	}
	if !c.Access(a, false).Hit {
		t.Error("MRU line was evicted")
	}
	if c.Access(b, false).Hit {
		t.Error("LRU line survived")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := New(small())
	c.Access(0, true) // dirty
	c.Access(512, false)
	res := c.Access(1024, false) // evicts line 0 (dirty, LRU)
	if !res.Writeback {
		t.Error("dirty eviction did not report writeback")
	}
	if c.Stats.Writebacks != 1 || c.Stats.Evictions != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
	// Clean eviction: no writeback.
	c2 := New(small())
	c2.Access(0, false)
	c2.Access(512, false)
	if c2.Access(1024, false).Writeback {
		t.Error("clean eviction reported writeback")
	}
}

func TestCacheProbeDoesNotDisturb(t *testing.T) {
	c := New(small())
	c.Access(0x40, false)
	h, m := c.Stats.Hits, c.Stats.Misses
	if !c.Probe(0x40) || c.Probe(0x4000) {
		t.Error("probe results wrong")
	}
	if c.Stats.Hits != h || c.Stats.Misses != m {
		t.Error("probe touched stats")
	}
}

// TestCacheMatchesFullyAssociativeModel cross-checks the cache against a
// simple model on single-set geometry (fully associative).
func TestCacheMatchesModel(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ways := 4
		c := New(Config{SizeBytes: 64 * ways, Ways: ways, LineBytes: 64})
		var model []uint64 // LRU order, most recent last
		for i := 0; i < 300; i++ {
			addr := uint64(r.Intn(16)) * 64
			wantHit := false
			for k, v := range model {
				if v == addr {
					wantHit = true
					model = append(model[:k], model[k+1:]...)
					break
				}
			}
			model = append(model, addr)
			if len(model) > ways {
				model = model[1:]
			}
			if got := c.Access(addr, false).Hit; got != wantHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	d1 := m.Allocate(0x1000, 10, 100)
	if d1 != 110 {
		t.Errorf("first fill at %d", d1)
	}
	d2 := m.Allocate(0x1000, 20, 100)
	if d2 != 110 {
		t.Errorf("merged fill at %d, want 110", d2)
	}
	if m.Merges != 1 {
		t.Errorf("merges = %d", m.Merges)
	}
}

func TestMSHRStallWhenFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x0, 0, 100)  // ready 100
	m.Allocate(0x40, 0, 100) // ready 100
	done := m.Allocate(0x80, 0, 100)
	if done != 200 {
		t.Errorf("stalled fill at %d, want 200", done)
	}
	if m.Stalls != 1 {
		t.Errorf("stalls = %d", m.Stalls)
	}
	if m.Outstanding(50) != 2 {
		t.Errorf("outstanding = %d", m.Outstanding(50))
	}
}

func TestMSHRReuseAfterFree(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(0x0, 0, 10)
	done := m.Allocate(0x40, 20, 10) // register free at 10
	if done != 30 {
		t.Errorf("fill at %d, want 30", done)
	}
	if m.Stalls != 0 {
		t.Errorf("stalls = %d", m.Stalls)
	}
}

func TestHierarchyInstPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: L1I miss, L2 miss, DRAM.
	done := h.FetchInst(0x1000, 0)
	if done != 1+6+200 {
		t.Errorf("cold fetch done at %d", done)
	}
	// Warm: L1 hit.
	done = h.FetchInst(0x1000, 500)
	if done != 501 {
		t.Errorf("warm fetch done at %d", done)
	}
	if h.Events.L1IAccesses != 2 || h.Events.DRAMAccesses != 1 {
		t.Errorf("events %+v", h.Events)
	}
}

func TestHierarchyDataPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	done := h.AccessData(0, 0x2000, false, 0)
	if done != 1+6+200 {
		t.Errorf("cold load done at %d", done)
	}
	done = h.AccessData(0, 0x2000, true, 300)
	if done != 301 {
		t.Errorf("warm store done at %d", done)
	}
	// L2 hit after L1 eviction: touch enough lines to evict 0x2000 from
	// L1D (64KB/4way/64B = 256 sets; conflict stride = 256*64 = 16KB).
	for i := 1; i <= 4; i++ {
		h.AccessData(0, 0x2000+uint64(i)*16384, false, 400)
	}
	done = h.AccessData(0, 0x2000, false, 1000)
	if done != 1000+1+6 {
		t.Errorf("L2 hit done at %d, want %d", done, 1000+1+6)
	}
}

func TestHierarchySpacesDoNotAlias(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.AccessData(0, 0x2000, false, 0)
	done := h.AccessData(1, 0x2000, false, 300)
	if done == 301 {
		t.Error("different address spaces hit the same line")
	}
	// Same space hits.
	if done := h.AccessData(1, 0x2000, false, 900); done != 901 {
		t.Errorf("same space re-access done at %d", done)
	}
}

func TestHierarchySharedSpaceShares(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.AccessData(0, 0x3000, false, 0)
	// MT threads all use space 0: constructive sharing.
	if done := h.AccessData(0, 0x3000, false, 300); done != 301 {
		t.Errorf("shared access done at %d", done)
	}
}

// TestHierarchyMSHRBandwidth checks that a burst of distinct misses is
// serialized by the MSHR file.
func TestHierarchyMSHRBandwidth(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	// Four misses to distinct lines at cycle 0: with 2 MSHRs, the third
	// and fourth wait for a free register.
	var dones []uint64
	for i := uint64(0); i < 4; i++ {
		dones = append(dones, h.AccessData(0, 0x10000+i*64, false, 0))
	}
	first := dones[0]
	if dones[1] != first {
		t.Errorf("second miss should overlap: %v", dones)
	}
	if dones[2] <= first || dones[3] <= first {
		t.Errorf("MSHR-limited misses did not serialize: %v", dones)
	}
	if h.MSHRStats().Stalls != 2 {
		t.Errorf("stalls = %d", h.MSHRStats().Stalls)
	}
}

// TestHierarchyL2CapacityEviction drives enough distinct lines through the
// hierarchy to overflow a set in L2 and verifies the re-fetch pays DRAM
// latency again.
func TestHierarchyL2CapacityEviction(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	// Shrink L2 to make the test cheap: 8 sets * 2 ways * 64B.
	cfg.L2 = Config{SizeBytes: 8 * 2 * 64, Ways: 2, LineBytes: 64}
	h := NewHierarchy(cfg)
	set0stride := uint64(8 * 64)
	// Fill set 0 beyond capacity.
	for i := uint64(0); i < 3; i++ {
		h.AccessData(0, i*set0stride, false, 0)
	}
	// Evict from L1D too so the re-access must go to L2.
	for i := uint64(10); i < 16; i++ {
		h.AccessData(0, i*16384, false, 100)
	}
	dram := h.Events.DRAMAccesses
	h.AccessData(0, 0, false, 1000) // line 0 was LRU in L2 set 0: evicted
	if h.Events.DRAMAccesses != dram+1 {
		t.Errorf("expected a DRAM re-fetch after L2 eviction")
	}
}

// TestCacheManySetsProperty cross-checks a multi-set cache against a
// per-set LRU model.
func TestCacheManySetsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 4 * 2 * 64, Ways: 2, LineBytes: 64}) // 4 sets
		model := make(map[int][]uint64)                                 // set -> LRU order
		for i := 0; i < 400; i++ {
			line := uint64(r.Intn(32))
			addr := line * 64
			set := int(line % 4)
			q := model[set]
			hit := false
			for k, v := range q {
				if v == line {
					hit = true
					q = append(q[:k], q[k+1:]...)
					break
				}
			}
			q = append(q, line)
			if len(q) > 2 {
				q = q[1:]
			}
			model[set] = q
			if got := c.Access(addr, false).Hit; got != hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
