package core

// FHB is one thread's Fetch History Buffer (paper §4.1): a small CAM that
// records the target PCs of recently taken branches while the thread is in
// DETECT or CATCHUP mode. Other threads search it to discover that their
// own fetch path has re-joined this thread's path.
type FHB struct {
	entries []uint64
	valid   []bool
	next    int // round-robin insertion point

	Inserts  uint64
	Searches uint64
	Matches  uint64
}

// NewFHB builds an n-entry buffer.
func NewFHB(n int) *FHB {
	return &FHB{entries: make([]uint64, n), valid: make([]bool, n)}
}

// reset returns the buffer to the state NewFHB built it in.
func (f *FHB) reset() {
	f.Clear()
	clear(f.entries)
	f.Inserts, f.Searches, f.Matches = 0, 0, 0
}

// Size returns the CAM capacity.
func (f *FHB) Size() int { return len(f.entries) }

// Record inserts a taken-branch target, overwriting the oldest entry.
func (f *FHB) Record(target uint64) {
	f.entries[f.next] = target
	f.valid[f.next] = true
	f.next = (f.next + 1) % len(f.entries)
	f.Inserts++
}

// Contains searches the CAM for target (one associative lookup).
func (f *FHB) Contains(target uint64) bool {
	f.Searches++
	for i, v := range f.valid {
		if v && f.entries[i] == target {
			f.Matches++
			return true
		}
	}
	return false
}

// Clear invalidates all entries (done when threads re-merge).
func (f *FHB) Clear() {
	for i := range f.valid {
		f.valid[i] = false
	}
	f.next = 0
}

// Occupancy returns the number of valid entries.
func (f *FHB) Occupancy() int {
	n := 0
	for _, v := range f.valid {
		if v {
			n++
		}
	}
	return n
}
