package core

import (
	"fmt"

	"mmt/internal/branch"
	"mmt/internal/cache"
	"mmt/internal/isa"
	"mmt/internal/obs"
	"mmt/internal/prog"
	"mmt/internal/tracecache"
)

// Core is one simulated MMT/SMT processor running a prog.System.
type Core struct {
	cfg  Config
	mode prog.Mode
	sys  *prog.System

	streams []*stream
	groups  []*group
	fhb     []*FHB
	rst     *RST
	lvip    *LVIP
	bp      *branch.Unit
	mem     *cache.Hierarchy
	tc      *tracecache.TraceCache
	tb      []*tracecache.Builder

	now uint64
	seq uint64 // rename-order sequence; window is sorted by it
	// rotate drives round-robin fetch priority among equal groups.
	rotate uint64

	fetchQ uopQueue
	window uopQueue // renamed, in seq order (the ROB contents)
	robQ   [MaxThreads]uopQueue
	// ready holds the renamed uops whose operands are available and
	// executing the issued ones not yet done, both in seq order, so
	// issue and complete walk them instead of the window. New sizes
	// them to the IQ and the ROB.
	ready, executing []*uop
	// memQ holds the in-flight stores in seq order. memQStale says a
	// store in it committed or was squashed since the last filter.
	memQ      []*uop
	memQStale bool

	// freeUops and freeGroups hold retired uops and fetch groups for
	// reuse (see uop.go and newGroup). deadGroups collects the groups
	// liveGroups drops during a fetch stage; they join freeGroups at its
	// end, once fetch no longer walks them.
	freeUops   []*uop
	freeGroups []*group
	deadGroups []*group

	// scratch is working storage the stages reuse every cycle, so the
	// cycle loop does not allocate.
	scratch struct {
		order, normal, engaged []*group // fetchOrder
		classes                [MaxThreads]ITID
		regMerge               [MaxThreads]bool // splitUop's LVIP expansion
	}

	// hintPCs are the software remerge points used by the SyncHints
	// baseline: join targets of forward branches and loop-exit
	// fall-throughs, derived statically from the program.
	hintPCs map[uint64]bool

	robOcc, iqOcc, lsqOcc int

	lastWriter    [MaxThreads][isa.NumRegs]*uop
	activeWriters [MaxThreads][isa.NumRegs]int
	committedReg  [MaxThreads][isa.NumRegs]uint64

	regMergeBudget int

	// splitNet is the structural split-network model, allocated lazily
	// for the ValidateSplits debug mode.
	splitNet *SplitNetwork

	// Observability (Attach): rec receives events and periodic samples;
	// every emission site guards on rec == nil, so an unattached core
	// pays one pointer compare per site. cycleStall/lastStall and
	// lastModeMix drive the stall-cause and fetch-mode edge events;
	// cycleCommitted is the committed uop count at the previous observed
	// cycle boundary (detects base cycles).
	rec            obs.Recorder
	sampleEvery    uint64
	cycleStall     obs.StallCause
	lastStall      obs.StallCause
	lastModeMix    uint64
	cycleCommitted uint64

	// rollbackUntil is the end of the latest LVIP rollback redirect
	// window, which classifies rollback cycles. It is kept attached or
	// not, so a recorder attached mid-window sees the window.
	rollbackUntil uint64

	stats Stats
}

// New builds a core for sys under cfg.
func New(cfg Config, sys *prog.System) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sys.Contexts) != cfg.Threads {
		return nil, fmt.Errorf("core: config has %d threads, system has %d contexts", cfg.Threads, len(sys.Contexts))
	}
	c := &Core{
		cfg:       cfg,
		mode:      sys.Mode,
		sys:       sys,
		rst:       NewRST(cfg.Threads, sys.Mode),
		lvip:      NewLVIP(cfg.LVIPSize),
		bp:        branch.NewUnit(cfg.Branch),
		mem:       cache.NewHierarchy(cfg.Mem),
		ready:     make([]*uop, 0, cfg.IQSize),
		executing: make([]*uop, 0, cfg.ROBSize),
	}
	if cfg.TraceCacheBytes > 0 {
		c.tc = tracecache.New(cfg.TraceCacheBytes)
	}
	if cfg.Sync == SyncHints {
		c.hintPCs = make(map[uint64]bool)
		seen := map[*prog.Program]bool{}
		for _, ctx := range sys.Contexts {
			if seen[ctx.Prog] {
				continue
			}
			seen[ctx.Prog] = true
			for pc := range remergeHints(ctx.Prog) { // mmtvet:ok — set union, order-insensitive
				c.hintPCs[pc] = true
			}
		}
	}
	for t := 0; t < cfg.Threads; t++ {
		c.streams = append(c.streams, newStream(sys.Contexts[t], cfg.MaxInsts))
		c.fhb = append(c.fhb, NewFHB(cfg.FHBSize))
		if c.tc != nil {
			c.tb = append(c.tb, tracecache.NewBuilder(c.tc))
		}
		for r := 0; r < isa.NumRegs; r++ {
			c.committedReg[t][r] = sys.Contexts[t].State.Reg[r]
		}
	}
	// Initial grouping: with shared fetch, threads at the same entry PC
	// start merged; without it, every thread fetches alone forever.
	if cfg.SharedFetch {
		byPC := map[uint64]ITID{}
		var order []uint64
		for t := 0; t < cfg.Threads; t++ {
			pc := sys.Contexts[t].State.PC
			if _, ok := byPC[pc]; !ok {
				order = append(order, pc)
			}
			byPC[pc] |= ITIDOf(t)
		}
		for _, pc := range order {
			c.newGroup(byPC[pc], 0, 0)
		}
	} else {
		for t := 0; t < cfg.Threads; t++ {
			c.newGroup(ITIDOf(t), 0, 0)
		}
	}
	return c, nil
}

// remergeHints derives the software remerge points a Thread-Fusion-style
// compiler would emit [36]: the join target of every forward conditional
// branch and the fall-through (exit) of every backward one.
func remergeHints(p *prog.Program) map[uint64]bool {
	hints := make(map[uint64]bool)
	for i, in := range p.Insts {
		if !in.Op.IsBranch() {
			continue
		}
		pc := p.Base + uint64(i)*isa.InstBytes
		target := uint64(in.Imm)
		if target > pc {
			hints[target] = true
		} else {
			hints[pc+isa.InstBytes] = true
		}
	}
	return hints
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// MemEvents exposes the memory-hierarchy event counters.
func (c *Core) MemEvents() cache.Events { return c.mem.Events }

// LVIPStats exposes the load-value predictor.
func (c *Core) LVIPStats() *LVIP { return c.lvip }

// CommittedReg returns the committed architectural value of register r in
// thread t (for verification against a functional run).
func (c *Core) CommittedReg(t int, r uint8) uint64 { return c.committedReg[t][r] }

// Cycle advances the machine by one clock: commit, complete, issue,
// rename, fetch — in that order, so results complete before dependents
// issue and freed resources are visible within the cycle.
func (c *Core) Cycle() {
	now := c.now
	c.commitStage(now)
	c.completeStage(now)
	c.issueStage(now)
	c.renameStage(now)
	c.fetchStage(now)
	c.now++
	c.stats.Cycles = c.now
	if c.rec != nil {
		c.observeCycle(now)
	}
}

// Run simulates until every thread drains (halts and empties the
// pipeline) or a bound is hit. It returns the final statistics.
func (c *Core) Run() (*Stats, error) {
	for !c.allDone() {
		if err := c.step(); err != nil {
			return &c.stats, err
		}
	}
	return &c.stats, nil
}

// step runs one cycle of Run: it fails instead when the cycle bound is
// reached, and after the cycle if a thread's oracle failed.
func (c *Core) step() error {
	if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
		return fmt.Errorf("core: exceeded %d cycles (livelock or undersized MaxCycles)", c.cfg.MaxCycles)
	}
	c.Cycle()
	for _, s := range c.streams {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
