package core

// HWCost reports the storage added by the MMT mechanisms, mirroring
// Table 3 of the paper ("Conservative Estimate of Hardware Requirements").
// Sizes are in bits unless noted.
type HWCost struct {
	// InstWinITIDBits: 4 ITID bits per instruction-window entry.
	InstWinITIDBits int
	// FHBBits: per-thread CAM, entries × 32-bit target (paper: 32*32 b).
	FHBBits int
	// RSTBits: register sharing table. The paper stores 11 bits per
	// architected register for ~50 physical-register-tagged entries
	// (the first four entries are hard-coded): 6 pair bits + attribution
	// for a 4-thread machine, 11*50 b total.
	RSTBits int
	// RegStateBits: one "no active writer" bit per architected register
	// per thread, for the register-merge validity check (256*4 b scaled
	// to threads × regs in the paper's physical file).
	RegStateBits int
	// LVIPBytes: mispredicted-load PC table (paper: 4 B × 4K entries).
	LVIPBytes int
	// TrackRegBits: the shadow copy of the mapping table used at commit
	// (paper: 4*50*9 b).
	TrackRegBits int
	// SplitLogicUM2: synthesized area of the split network (paper:
	// 80k um² at 90 nm).
	SplitLogicUM2 int
}

// EstimateHWCost computes the Table 3 storage for a configuration.
func EstimateHWCost(cfg Config) HWCost {
	const archRegs = 50 // paper counts ~50 architected/mapping entries
	pairBits := cfg.Threads * (cfg.Threads - 1) / 2
	return HWCost{
		InstWinITIDBits: 4 * cfg.ROBSize,
		FHBBits:         cfg.FHBSize * 32 * cfg.Threads,
		RSTBits:         (pairBits + 5) * archRegs, // 6 pair bits + valid/attribution ≈ 11 at 4 threads
		RegStateBits:    256 * cfg.Threads,
		LVIPBytes:       4 * cfg.LVIPSize,
		TrackRegBits:    cfg.Threads * archRegs * 9,
		SplitLogicUM2:   80_000,
	}
}

// TotalBits sums the storage cost (LVIP converted to bits).
func (h HWCost) TotalBits() int {
	return h.InstWinITIDBits + h.FHBBits + h.RSTBits + h.RegStateBits +
		h.LVIPBytes*8 + h.TrackRegBits
}
