package tracecache

import "testing"

func TestLookupMissThenHit(t *testing.T) {
	tc := New(1 << 20)
	if tc.Lookup(0x1000) {
		t.Error("cold lookup hit")
	}
	tc.Insert(0x1000, 8)
	if !tc.Lookup(0x1000) {
		t.Error("resident trace missed")
	}
}

func TestInsertReplacesSameStart(t *testing.T) {
	tc := New(1 << 20)
	tc.Insert(0x1000, 8)
	tc.Insert(0x1000, 16)
	if len(tc.byStart) != 1 {
		t.Errorf("len = %d", len(tc.byStart))
	}
	if !tc.Lookup(0x1000) {
		t.Error("replaced trace missed")
	}
	if tc.used != 16 {
		t.Errorf("used = %d", tc.used)
	}
}

func TestCapacityEviction(t *testing.T) {
	// Capacity for exactly 4 slots of 16 instructions.
	tc := New(4 * 16 * instSlotBytes)
	for i := 0; i < 4; i++ {
		tc.Insert(uint64(i)*0x100, 16)
	}
	// Touch trace 0 so trace at 0x100 is LRU.
	tc.Lookup(0x000)
	tc.Insert(0x900, 16)
	if tc.Lookup(0x100) {
		t.Error("LRU trace survived eviction")
	}
	if !tc.Lookup(0x000) {
		t.Error("MRU trace evicted")
	}
	if tc.used > tc.capInsts {
		t.Errorf("used %d exceeds capacity %d", tc.used, tc.capInsts)
	}
}

func TestDisabledCache(t *testing.T) {
	tc := New(0)
	tc.Insert(0x1000, 8)
	if tc.Lookup(0x1000) {
		t.Error("disabled cache hit")
	}
}

func TestBuilderFlushOnInstLimit(t *testing.T) {
	tc := New(1 << 20)
	b := NewBuilder(tc)
	for i := 0; i < MaxInsts; i++ {
		b.Retire(0x1000+uint64(i)*4, false)
	}
	if !tc.Lookup(0x1000) {
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
	if len(tc.byStart) != 0 {
		t.Fatal("trace inserted before its MaxBranches-th taken branch")
	}
	b.Retire(0x3000, true) // third taken branch: flush
	if !tc.Lookup(0x1000) || tc.used != 4 {
		t.Errorf("trace at 0x1000: resident %v, %d insts, want 4", tc.Lookup(0x1000), tc.used)
	}
}

func TestBuilderTracksContiguity(t *testing.T) {
	tc := New(1 << 20)
	b := NewBuilder(tc)
	// Partial trace is not visible until flushed.
	b.Retire(0x1000, false)
	if tc.Lookup(0x1000) {
		t.Error("partial trace visible")
	}
}

func TestInsertUpdatesResidentTraceInPlace(t *testing.T) {
	// Capacity for exactly two 16-instruction traces.
	tc := New(2 * 16 * instSlotBytes)
	tc.Insert(0x1000, 16)
	tc.Insert(0x2000, 16)
	// 0x1000 is the LRU trace: growing it must evict 0x2000, not itself.
	tc.Insert(0x1000, 32)
	if tc.Lookup(0x2000) {
		t.Error("the other trace survived an update that needed its room")
	}
	if !tc.Lookup(0x1000) {
		t.Error("updated trace missed")
	}
	if tc.used != 32 || len(tc.byStart) != 1 {
		t.Errorf("used = %d, len = %d", tc.used, len(tc.byStart))
	}
	if allocs := testing.AllocsPerRun(100, func() { tc.Insert(0x1000, 8) }); allocs != 0 {
		t.Errorf("re-inserting a resident trace allocates %v times", allocs)
	}
}
