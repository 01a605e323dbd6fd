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

// Core is one simulated MMT/SMT processor running a prog.System. The
// buffers its run fills live in an embedded storage that New copies from
// a process-wide pool and Release copies back (see storage.go).
type Core struct {
	cfg  Config
	mode prog.Mode
	sys  *prog.System

	bp  *branch.Unit
	mem *cache.Hierarchy
	tc  *tracecache.TraceCache

	// storage is embedded by value, so the cycle loop reaches its
	// fields without a pointer hop (through a *storage, the hops cost
	// 8% of simulation time on a 2-vCPU AMD EPYC). home is the pooled
	// storage it was copied from, which Release copies it back to.
	storage
	home *storage
	// streams and fhb point at the storage's per-thread stream and FHB
	// of each configured thread.
	streams   []*stream
	fhb       []*FHB
	perThread struct {
		streams [MaxThreads]*stream
		fhb     [MaxThreads]*FHB
	}

	now uint64
	seq uint64 // rename-order sequence; window is sorted by it
	// rotate drives round-robin fetch priority among equal groups.
	rotate uint64

	// hintPCs are the software remerge points used by the SyncHints
	// baseline: join targets of forward branches and loop-exit
	// fall-throughs, derived statically from the program.
	hintPCs map[uint64]bool

	robOcc, iqOcc, lsqOcc int

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
		cfg:  cfg,
		mode: sys.Mode,
		sys:  sys,
		bp:   branch.NewUnit(cfg.Branch),
		mem:  cache.NewHierarchy(cfg.Mem),
		home: drawStorage(cfg),
	}
	c.storage = *c.home
	c.streams, c.fhb = c.perThread.streams[:0], c.perThread.fhb[:0]
	c.rst.init(cfg.Threads, sys.Mode)
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
		c.streams = append(c.streams, c.streamBuf[t].start(sys.Contexts[t], cfg.MaxInsts))
		c.fhb = append(c.fhb, &c.fhbBuf[t])
		if c.tc != nil {
			c.tb[t] = tracecache.NewBuilder(c.tc)
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

// Stats returns the accumulated statistics. They live in the core's
// storage: a caller that releases the core copies them first.
func (c *Core) Stats() *Stats { return &c.stats }

// MemEvents exposes the memory-hierarchy event counters.
func (c *Core) MemEvents() cache.Events { return c.mem.Events }

// LVIPStats exposes the load-value predictor.
func (c *Core) LVIPStats() *LVIP { return &c.lvip }

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
