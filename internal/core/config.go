package core

import (
	"fmt"

	"mmt/internal/branch"
	"mmt/internal/cache"
	"mmt/internal/isa"
)

// Config holds every architectural parameter of the core. DefaultConfig
// reproduces Table 4 of the paper.
type Config struct {
	Threads int

	// Widths (instructions per cycle).
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RenameWidth int

	// Window sizes.
	FetchQueue int
	IQSize     int
	ROBSize    int
	LSQSize    int

	// Functional units.
	IntALUs int
	FPUs    int
	LSPorts int

	// Front end.
	Branch          branch.Config
	TraceCacheBytes int
	// MispredictPenalty is the front-end refill delay after a resolved
	// misprediction redirects fetch.
	MispredictPenalty uint64
	// DivergeRedirectPenalty is the cheaper front-end re-steer paid by a
	// subgroup that leaves the followed trace path at a divergence (the
	// target trace is typically resident; no resolution wait is needed
	// because the other subgroup's outcome already proves the branch
	// resolved both ways).
	DivergeRedirectPenalty uint64

	// Memory system.
	Mem cache.HierarchyConfig

	// MMT mechanisms (Table 5 design points).
	SharedFetch bool // MMT-F: ITID-tagged merged fetch + MERGE/DETECT/CATCHUP
	SharedExec  bool // MMT-FX: RST-driven split stage, merged execution
	RegMerge    bool // MMT-FXR: commit-time register value merging

	// Sync selects the remerge mechanism (ablation; Sync policies other
	// than SyncFHB reproduce prior-work baselines).
	Sync SyncPolicy
	// HintParkTimeout bounds how long a group parks at a software hint
	// waiting for the other threads (SyncHints only).
	HintParkTimeout uint64
	// LVIP selects the load-value-identical policy for private-memory
	// merged loads (ablation).
	LVIP LVIPMode

	// FHBSize is the per-thread Fetch History Buffer CAM size (Table 4:
	// 32 entries; swept 8–128 in Fig. 7(a)/(c)).
	FHBSize int
	// LVIPSize is the Load-Value-Identical-Predictor table size
	// (Table 4: 4K entries).
	LVIPSize int
	// RegMergePorts bounds register-merge value comparisons per cycle
	// (the paper performs them only "if there are read ports available").
	RegMergePorts int

	// ValidateSplits cross-checks every split-stage decision against the
	// structural Filter+Chooser network of §4.2.2 (SplitNetwork) and
	// panics on divergence — a debug invariant used by the fuzzer.
	ValidateSplits bool

	// MaxInsts bounds per-thread committed instructions (0 = no bound);
	// the simulation also ends when all contexts halt.
	MaxInsts uint64
	// MaxCycles aborts runaway simulations (0 = no bound).
	MaxCycles uint64
}

// DefaultConfig returns the Table 4 machine for n hardware threads.
func DefaultConfig(n int) Config {
	return Config{
		Threads:                n,
		FetchWidth:             8,
		IssueWidth:             8,
		CommitWidth:            8,
		RenameWidth:            8,
		FetchQueue:             32,
		IQSize:                 64,
		ROBSize:                256,
		LSQSize:                64,
		IntALUs:                6,
		FPUs:                   3,
		LSPorts:                2,
		Branch:                 branch.DefaultConfig(n),
		TraceCacheBytes:        1 << 20,
		MispredictPenalty:      8,
		DivergeRedirectPenalty: 3,
		Mem:                    cache.DefaultHierarchyConfig(),
		SharedFetch:            true,
		SharedExec:             true,
		RegMerge:               true,
		Sync:                   SyncFHB,
		HintParkTimeout:        200,
		LVIP:                   LVIPPredict,
		FHBSize:                32,
		LVIPSize:               4096,
		RegMergePorts:          2,
		MaxCycles:              0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Threads < 1 || c.Threads > MaxThreads {
		return fmt.Errorf("core: %d threads outside 1–%d", c.Threads, MaxThreads)
	}
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 || c.RenameWidth < 1 {
		return fmt.Errorf("core: non-positive pipeline width")
	}
	if c.ROBSize < 1 || c.IQSize < 1 || c.LSQSize < 1 || c.FetchQueue < 1 {
		return fmt.Errorf("core: non-positive window size")
	}
	if c.IntALUs < 1 || c.FPUs < 1 || c.LSPorts < 1 {
		return fmt.Errorf("core: non-positive unit count")
	}
	if c.SharedExec && !c.SharedFetch {
		return fmt.Errorf("core: shared execution requires shared fetch")
	}
	if c.RegMerge && !c.SharedExec {
		return fmt.Errorf("core: register merging requires shared execution")
	}
	if c.SharedFetch && c.FHBSize < 1 {
		return fmt.Errorf("core: shared fetch requires FHBSize >= 1")
	}
	// A shared fetch splits into up to Threads pieces that dispatch
	// together (windowSpace), so a smaller window never admits them.
	if c.SharedFetch {
		for _, w := range []struct {
			name string
			size int
		}{{"ROB", c.ROBSize}, {"IQ", c.IQSize}, {"LSQ", c.LSQSize}} {
			if w.size < c.Threads {
				return fmt.Errorf("core: shared fetch needs at least %d %s entries (one per thread), have %d",
					c.Threads, w.name, w.size)
			}
		}
	}
	return nil
}

// SyncPolicy selects how divergent threads find their remerge points.
type SyncPolicy uint8

const (
	// SyncFHB is the paper's mechanism: Fetch History Buffers detect the
	// remerge point in hardware, CATCHUP resynchronizes (§4.1).
	SyncFHB SyncPolicy = iota
	// SyncHints models the Thread Fusion baseline [36]: software-provided
	// remerge points (statically, the join targets of forward branches);
	// a divergent thread group parks at a hint until the others arrive
	// or a timeout expires. No FHB, no CATCHUP priority boost.
	SyncHints
	// SyncNone disables remerge detection entirely: threads re-join only
	// if their fetch PCs happen to coincide.
	SyncNone
)

func (s SyncPolicy) String() string {
	switch s {
	case SyncFHB:
		return "fhb"
	case SyncHints:
		return "hints"
	case SyncNone:
		return "none"
	}
	return "?"
}

// ParseSyncPolicy resolves a policy by its String name.
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch name {
	case "fhb":
		return SyncFHB, nil
	case "hints":
		return SyncHints, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("core: unknown sync policy %q (want fhb, hints or none)", name)
}

// LVIPMode selects the private-memory merged-load policy.
type LVIPMode uint8

const (
	// LVIPPredict is the paper's predictor: predict identical until the
	// PC mispredicts; verify and roll back (§4.2.5).
	LVIPPredict LVIPMode = iota
	// LVIPOff always splits private merged loads (no prediction).
	LVIPOff
	// LVIPOracle consults the actual values at the split stage: merge
	// exactly when the values match, with no rollbacks — the upper bound
	// on what any load-value-identical predictor could achieve.
	LVIPOracle
)

func (m LVIPMode) String() string {
	switch m {
	case LVIPPredict:
		return "predict"
	case LVIPOff:
		return "off"
	case LVIPOracle:
		return "oracle"
	}
	return "?"
}

// execLatency returns the execution latency in cycles for a uop class
// (loads and stores are handled by the memory path).
func execLatency(cl isa.Class) uint64 {
	switch cl {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassNop, isa.ClassHalt:
		return 1
	case isa.ClassIntMul:
		return 3
	case isa.ClassIntDiv:
		return 12
	case isa.ClassFPALU:
		return 2
	case isa.ClassFPMul:
		return 4
	case isa.ClassFPDiv:
		return 12
	default:
		return 1
	}
}

// fuKind maps a class onto one of the two FU pools (int ALUs serve
// integer, branch and memory-address work; FPUs serve floating point).
type fuKind uint8

const (
	fuInt fuKind = iota
	fuFP
)

func fuOf(cl isa.Class) fuKind {
	switch cl {
	case isa.ClassFPALU, isa.ClassFPMul, isa.ClassFPDiv:
		return fuFP
	default:
		return fuInt
	}
}
