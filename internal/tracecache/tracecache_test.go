package tracecache

import "testing"

func TestLookupMissThenHit(t *testing.T) {
	tc := New(1 << 20)
	if _, ok := tc.Lookup(0x1000); ok {
		t.Error("cold lookup hit")
	}
	tc.Insert(0x1000, 8, 2)
	br, ok := tc.Lookup(0x1000)
	if !ok || br != 2 {
		t.Errorf("lookup = %d/%v", br, ok)
	}
	if tc.Hits != 1 || tc.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", tc.Hits, tc.Misses)
	}
}

func TestInsertReplacesSameStart(t *testing.T) {
	tc := New(1 << 20)
	tc.Insert(0x1000, 8, 1)
	tc.Insert(0x1000, 16, 3)
	if tc.Len() != 1 {
		t.Errorf("len = %d", tc.Len())
	}
	br, _ := tc.Lookup(0x1000)
	if br != 3 {
		t.Errorf("branches = %d", br)
	}
	if tc.used != 16 {
		t.Errorf("used = %d", tc.used)
	}
}

func TestCapacityEviction(t *testing.T) {
	// Capacity for exactly 4 slots of 16 instructions.
	tc := New(4 * 16 * instSlotBytes)
	for i := 0; i < 4; i++ {
		tc.Insert(uint64(i)*0x100, 16, 1)
	}
	// Touch trace 0 so trace at 0x100 is LRU.
	tc.Lookup(0x000)
	tc.Insert(0x900, 16, 1)
	if _, ok := tc.Lookup(0x100); ok {
		t.Error("LRU trace survived eviction")
	}
	if _, ok := tc.Lookup(0x000); !ok {
		t.Error("MRU trace evicted")
	}
	if tc.used > tc.capInsts {
		t.Errorf("used %d exceeds capacity %d", tc.used, tc.capInsts)
	}
}

func TestDisabledCache(t *testing.T) {
	tc := New(0)
	tc.Insert(0x1000, 8, 1)
	if _, ok := tc.Lookup(0x1000); ok {
		t.Error("disabled cache hit")
	}
}

func TestBuilderFlushOnInstLimit(t *testing.T) {
	tc := New(1 << 20)
	b := NewBuilder(tc)
	for i := 0; i < MaxInsts; i++ {
		b.Retire(0x1000+uint64(i)*4, false)
	}
	if _, ok := tc.Lookup(0x1000); !ok {
		t.Error("trace not inserted after MaxInsts")
	}
	// Builder restarted: next retire begins a new trace.
	b.Retire(0x5000, false)
	if b.startPC != 0x5000 {
		t.Errorf("builder start = %#x", b.startPC)
	}
}

func TestBuilderFlushOnBranchLimit(t *testing.T) {
	tc := New(1 << 20)
	b := NewBuilder(tc)
	b.Retire(0x1000, false)
	b.Retire(0x1004, true)
	b.Retire(0x2000, true)
	b.Retire(0x3000, true) // third taken branch: flush
	br, ok := tc.Lookup(0x1000)
	if !ok || br != MaxBranches {
		t.Errorf("trace = %d/%v", br, ok)
	}
}

func TestBuilderTracksContiguity(t *testing.T) {
	tc := New(1 << 20)
	b := NewBuilder(tc)
	// Partial trace is not visible until flushed.
	b.Retire(0x1000, false)
	if _, ok := tc.Lookup(0x1000); ok {
		t.Error("partial trace visible")
	}
}

func TestInsertUpdatesResidentTraceInPlace(t *testing.T) {
	// Capacity for exactly two 16-instruction traces.
	tc := New(2 * 16 * instSlotBytes)
	tc.Insert(0x1000, 16, 1)
	tc.Insert(0x2000, 16, 1)
	// 0x1000 is the LRU trace: growing it must evict 0x2000, not itself.
	tc.Insert(0x1000, 32, 2)
	if _, ok := tc.Lookup(0x2000); ok {
		t.Error("the other trace survived an update that needed its room")
	}
	if br, ok := tc.Lookup(0x1000); !ok || br != 2 {
		t.Errorf("updated trace = %d/%v", br, ok)
	}
	if tc.used != 32 || tc.Len() != 1 {
		t.Errorf("used = %d, len = %d", tc.used, tc.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { tc.Insert(0x1000, 8, 1) }); allocs != 0 {
		t.Errorf("re-inserting a resident trace allocates %v times", allocs)
	}
}
