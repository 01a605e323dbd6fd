package cache

import "mmt/internal/pool"

// HierarchyConfig sizes the full memory system. Defaults follow Table 4 of
// the paper: 64 KB 4-way L1I and L1D with 64 B lines and 1-cycle latency,
// 4 MB 8-way L2 with 6-cycle latency, 200-cycle DRAM.
type HierarchyConfig struct {
	L1I Config
	L1D Config
	L2  Config

	L1Latency   uint64
	L2Latency   uint64
	DRAMLatency uint64

	// MSHRs bounds outstanding L1D misses (scaled with load/store ports
	// in the Fig. 7(b) sensitivity study).
	MSHRs int
}

// DefaultHierarchyConfig returns the Table 4 memory system.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		L1D:         Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		L2:          Config{SizeBytes: 4 << 20, Ways: 8, LineBytes: 64},
		L1Latency:   1,
		L2Latency:   6,
		DRAMLatency: 200,
		MSHRs:       8,
	}
}

// Events counts per-structure access events for the energy model.
type Events struct {
	L1IAccesses  uint64
	L1DAccesses  uint64
	L2Accesses   uint64
	DRAMAccesses uint64
}

// Hierarchy is the three-level memory system. Data addresses are qualified
// by an address-space id (0 for shared/MT memory, the context id for
// private ME memory); instruction addresses always use space 0 because all
// contexts run the same binary.
type Hierarchy struct {
	cfg  HierarchyConfig
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	mshr *MSHR

	Events Events
}

// hierarchies holds released hierarchies by configuration.
var hierarchies pool.Keyed[HierarchyConfig, *Hierarchy]

// NewHierarchy builds the memory system, reusing a released one of the
// same configuration when there is one.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if h, ok := hierarchies.Get(cfg); ok {
		return h
	}
	return &Hierarchy{
		cfg:  cfg,
		l1i:  New(cfg.L1I),
		l1d:  New(cfg.L1D),
		l2:   New(cfg.L2),
		mshr: NewMSHR(cfg.MSHRs),
	}
}

// Release resets h to the state NewHierarchy builds and hands it to the
// next NewHierarchy of its configuration. h must not be used afterwards.
// Releasing is optional: an unreleased hierarchy is garbage collected.
func (h *Hierarchy) Release() {
	h.l1i.reset()
	h.l1d.reset()
	h.l2.reset()
	h.mshr.reset()
	h.Events = Events{}
	hierarchies.Put(h.cfg, h)
}

// spaceTag folds an address-space id into the address above the simulated
// address range so distinct spaces never alias in the tag stores.
func spaceTag(space uint8, addr uint64) uint64 {
	return addr | uint64(space)<<48
}

// FetchInst accesses the instruction path for the line containing pc at
// cycle now and returns the cycle the bytes are available.
func (h *Hierarchy) FetchInst(pc, now uint64) (done uint64) {
	h.Events.L1IAccesses++
	if h.l1i.Access(pc, false).Hit {
		return now + h.cfg.L1Latency
	}
	h.Events.L2Accesses++
	if h.l2.Access(pc, false).Hit {
		return now + h.cfg.L1Latency + h.cfg.L2Latency
	}
	h.Events.DRAMAccesses++
	return now + h.cfg.L1Latency + h.cfg.L2Latency + h.cfg.DRAMLatency
}

// AccessData performs a load (write=false) or store (write=true) in the
// given address space at cycle now and returns the completion cycle.
// Stores are modeled as write-allocate into L1D; dirty evictions charge an
// L2 access.
func (h *Hierarchy) AccessData(space uint8, addr uint64, write bool, now uint64) (done uint64) {
	a := spaceTag(space, addr)
	h.Events.L1DAccesses++
	res := h.l1d.Access(a, write)
	if res.Writeback {
		h.Events.L2Accesses++
		h.l2.Access(a, true) // placeholder line install for the writeback
	}
	if res.Hit {
		return now + h.cfg.L1Latency
	}
	// L1D miss: MSHR-managed fill from L2 or DRAM.
	h.Events.L2Accesses++
	var fill uint64
	if h.l2.Access(a, false).Hit {
		fill = h.cfg.L2Latency
	} else {
		h.Events.DRAMAccesses++
		fill = h.cfg.L2Latency + h.cfg.DRAMLatency
	}
	return h.mshr.Allocate(h.l1d.lineAddr(a), now, h.cfg.L1Latency+fill)
}

// MSHRStats exposes the miss-register file counters.
func (h *Hierarchy) MSHRStats() *MSHR { return h.mshr }
