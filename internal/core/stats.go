package core

// DistBuckets are the divergence-distance histogram bucket upper bounds in
// taken branches (paper Fig. 2 and §6.3).
var DistBuckets = []uint64{16, 32, 64, 128, 256, 512}

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles uint64

	// Per-thread committed architectural instructions.
	Committed [MaxThreads]uint64

	// Fetch behaviour. FetchedByMode counts per-thread instructions by
	// the fetch mode of the group that fetched them (Fig. 5d); merged
	// fetches count once per member thread. FetchAccesses counts actual
	// front-end fetch operations (the shared-fetch saving shows as
	// FetchAccesses < sum(FetchedByMode)).
	FetchedByMode [3]uint64
	FetchAccesses uint64

	// Commit-time classification of per-thread instructions (Fig. 5b).
	ExecIdentical      uint64 // committed merged (one execution, n threads)
	ExecIdentRegMerge  uint64 // merged only thanks to register merging
	FetchIdenticalOnly uint64 // fetched merged, executed split
	NotIdentical       uint64

	// Synchronization events.
	Divergences     uint64
	Remerges        uint64
	CatchupsStarted uint64
	CatchupsAborted uint64
	// RemergeDistance histogram: taken branches between divergence and
	// remerge, bucketed per DistBuckets; the last bin is ">512".
	RemergeDistance [7]uint64

	// Branch prediction.
	BranchUops  uint64
	Mispredicts uint64
	// WrongPathFetchSlots counts fetch bandwidth burned on wrong-path
	// fetch while a mispredicted branch resolves.
	WrongPathFetchSlots uint64
	TraceCacheHits      uint64

	// LVIP.
	LVIPRollbacks uint64

	// HintParks counts groups parked at software remerge hints
	// (SyncHints baseline only).
	HintParks uint64

	// Register merging.
	RegMergeCompares uint64
	RegMergeHits     uint64

	// Window/throughput events (also energy events).
	RenamedUops    uint64
	IssuedUops     uint64
	FUOps          uint64
	RegReads       uint64
	RegWrites      uint64
	CommittedUops  uint64
	SquashedUops   uint64
	FetchQFullStop uint64
	ROBFullStop    uint64
	IQFullStop     uint64
	LSQFullStop    uint64

	// MMT overhead events (for the energy model).
	RSTUpdates  uint64
	FHBInserts  uint64
	FHBSearches uint64
	LVIPLookups uint64
	SplitOps    uint64
}

// TotalCommitted sums committed instructions over threads.
func (s *Stats) TotalCommitted() uint64 {
	var t uint64
	for _, c := range s.Committed {
		t += c
	}
	return t
}

// IPC returns committed per-thread instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TotalCommitted()) / float64(s.Cycles)
}

// FetchModeFractions returns the fraction of per-thread instructions
// fetched in MERGE, DETECT and CATCHUP modes.
func (s *Stats) FetchModeFractions() (merge, detect, catchup float64) {
	total := float64(s.FetchedByMode[0] + s.FetchedByMode[1] + s.FetchedByMode[2])
	if total == 0 {
		return 0, 0, 0
	}
	return float64(s.FetchedByMode[FetchMerge]) / total,
		float64(s.FetchedByMode[FetchDetect]) / total,
		float64(s.FetchedByMode[FetchCatchup]) / total
}

// IdenticalFractions returns the committed-instruction classification
// fractions of Fig. 5(b).
func (s *Stats) IdenticalFractions() (execIdent, execIdentRegMerge, fetchIdent, notIdent float64) {
	total := float64(s.ExecIdentical + s.ExecIdentRegMerge + s.FetchIdenticalOnly + s.NotIdentical)
	if total == 0 {
		return 0, 0, 0, 0
	}
	return float64(s.ExecIdentical) / total,
		float64(s.ExecIdentRegMerge) / total,
		float64(s.FetchIdenticalOnly) / total,
		float64(s.NotIdentical) / total
}

// RecordRemergeDistance buckets one divergence-to-remerge distance.
func (s *Stats) RecordRemergeDistance(takenBranches uint64) {
	for i, b := range DistBuckets {
		if takenBranches <= b {
			s.RemergeDistance[i]++
			return
		}
	}
	s.RemergeDistance[len(DistBuckets)]++
}

// RemergeWithin returns the fraction of remerges found within the bucket
// bound (inclusive), e.g. RemergeWithin(512) for the §6.3 claim.
func (s *Stats) RemergeWithin(bound uint64) float64 {
	var total, within uint64
	for i, c := range s.RemergeDistance {
		total += c
		if i < len(DistBuckets) && DistBuckets[i] <= bound {
			within += c
		}
	}
	if total == 0 {
		return 1
	}
	return float64(within) / float64(total)
}
