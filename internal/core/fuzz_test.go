package core

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/isa"
	"mmt/internal/obs"
	"mmt/internal/prog"
)

// Differential fuzzing: generate random (but guaranteed-terminating)
// programs, run them through the full MMT pipeline under random
// configurations, and check the committed architectural state of every
// thread against the pure functional oracle. This exercises arbitrary
// interleavings of divergence, remerge, catchup, LVIP rollback, register
// merging and partial squashes.

// genProgram emits a random program as assembly text. Structure:
// a prologue that loads per-context inputs, then a nest of countdown
// loops (always terminating) whose bodies mix ALU ops, memory traffic
// within a bounded scratch region, and data-dependent diamonds.
func genProgram(r *rand.Rand) string {
	var b strings.Builder
	regs := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	reg := func() int { return regs[r.Intn(len(regs))] }

	fmt.Fprintf(&b, "        li    r4, input\n")
	fmt.Fprintf(&b, "        ld    r25, 0(r4)\n") // per-context input
	fmt.Fprintf(&b, "        ld    r26, 8(r4)\n") // shared input
	fmt.Fprintf(&b, "        li    r27, scratch\n")

	emitOp := func(depth int) {
		switch r.Intn(10) {
		case 0:
			fmt.Fprintf(&b, "        add   r%d, r%d, r%d\n", reg(), reg(), reg())
		case 1:
			fmt.Fprintf(&b, "        sub   r%d, r%d, r%d\n", reg(), reg(), reg())
		case 2:
			fmt.Fprintf(&b, "        xor   r%d, r%d, r%d\n", reg(), reg(), reg())
		case 3:
			fmt.Fprintf(&b, "        mul   r%d, r%d, r%d\n", reg(), reg(), reg())
		case 4:
			fmt.Fprintf(&b, "        addi  r%d, r%d, %d\n", reg(), reg(), r.Intn(64)-32)
		case 5:
			fmt.Fprintf(&b, "        srli  r%d, r%d, %d\n", reg(), reg(), 1+r.Intn(8))
		case 6: // load from the bounded scratch region
			fmt.Fprintf(&b, "        andi  r%d, r%d, 63\n", reg(), reg())
			d := reg()
			a := reg()
			fmt.Fprintf(&b, "        slli  r%d, r%d, 3\n", a, a)
			fmt.Fprintf(&b, "        andi  r%d, r%d, 511\n", a, a)
			fmt.Fprintf(&b, "        add   r%d, r%d, r27\n", a, a)
			fmt.Fprintf(&b, "        ld    r%d, 0(r%d)\n", d, a)
		case 7: // store into the scratch region
			a := reg()
			v := reg()
			fmt.Fprintf(&b, "        slli  r%d, r%d, 3\n", a, a)
			fmt.Fprintf(&b, "        andi  r%d, r%d, 511\n", a, a)
			fmt.Fprintf(&b, "        add   r%d, r%d, r27\n", a, a)
			fmt.Fprintf(&b, "        st    r%d, 0(r%d)\n", v, a)
		case 8: // per-context dependence
			fmt.Fprintf(&b, "        add   r%d, r%d, r25\n", reg(), reg())
		case 9: // shared-value dependence
			fmt.Fprintf(&b, "        add   r%d, r%d, r26\n", reg(), reg())
		}
		_ = depth
	}

	var label int
	emitDiamond := func() {
		label++
		cond := reg()
		fmt.Fprintf(&b, "        andi  r28, r%d, %d\n", cond, 1+r.Intn(3))
		fmt.Fprintf(&b, "        beqz  r28, dia%delse\n", label)
		for i := 0; i < 1+r.Intn(4); i++ {
			emitOp(0)
		}
		fmt.Fprintf(&b, "        j     dia%dend\n", label)
		fmt.Fprintf(&b, "dia%delse:\n", label)
		for i := 0; i < 1+r.Intn(4); i++ {
			emitOp(0)
		}
		fmt.Fprintf(&b, "dia%dend:\n", label)
	}

	var emitLoop func(depth int)
	emitLoop = func(depth int) {
		label++
		l := label
		counter := 20 + r.Intn(21-depth*5)
		fmt.Fprintf(&b, "        li    r%d, %d\n", 17+depth, counter)
		fmt.Fprintf(&b, "lp%d:\n", l)
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			switch {
			case depth < 2 && r.Intn(6) == 0:
				emitLoop(depth + 1)
			case r.Intn(4) == 0:
				emitDiamond()
			default:
				emitOp(depth)
			}
		}
		fmt.Fprintf(&b, "        addi  r%d, r%d, -1\n", 17+depth, 17+depth)
		fmt.Fprintf(&b, "        bnez  r%d, lp%d\n", 17+depth, l)
	}

	emitLoop(0)
	fmt.Fprintf(&b, "        halt\n")
	fmt.Fprintf(&b, "        .data\n")
	fmt.Fprintf(&b, "input:  .word 0, 0\n")
	fmt.Fprintf(&b, "scratch: .space 512\n")
	return b.String()
}

func genConfig(r *rand.Rand, threads int) Config {
	cfg := DefaultConfig(threads)
	cfg.FetchWidth = []int{2, 4, 8, 16}[r.Intn(4)]
	cfg.IssueWidth = []int{2, 4, 8}[r.Intn(3)]
	cfg.CommitWidth = cfg.IssueWidth
	cfg.RenameWidth = cfg.FetchWidth
	cfg.ROBSize = []int{32, 64, 256}[r.Intn(3)]
	cfg.IQSize = cfg.ROBSize / 2
	cfg.LSQSize = []int{8, 16, 64}[r.Intn(3)]
	cfg.FHBSize = []int{2, 8, 32}[r.Intn(3)]
	cfg.LVIPSize = []int{4, 64, 4096}[r.Intn(3)]
	cfg.IntALUs = 1 + r.Intn(6)
	cfg.FPUs = 1 + r.Intn(3)
	cfg.LSPorts = 1 + r.Intn(3)
	if r.Intn(4) == 0 {
		cfg.TraceCacheBytes = 0
	}
	// The knobs the design-space explorer and the ablations sweep.
	cfg.Sync = []SyncPolicy{SyncFHB, SyncHints, SyncNone}[r.Intn(3)]
	cfg.LVIP = []LVIPMode{LVIPPredict, LVIPOff, LVIPOracle}[r.Intn(3)]
	cfg.RegMergePorts = r.Intn(5)
	cfg.FetchQueue = []int{4, 32, 256}[r.Intn(3)]
	if r.Intn(3) == 0 {
		cfg.Mem.L1I.SizeBytes = []int{4 << 10, 16 << 10}[r.Intn(2)]
		cfg.Mem.L1D.SizeBytes = cfg.Mem.L1I.SizeBytes
		cfg.Mem.L2.SizeBytes = []int{256 << 10, 1 << 20}[r.Intn(2)]
	}
	cfg.ValidateSplits = true
	switch r.Intn(4) {
	case 0:
		cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge = false, false, false
	case 1:
		cfg.SharedExec, cfg.RegMerge = false, false
	case 2:
		cfg.RegMerge = false
	}
	cfg.MaxCycles = 10_000_000
	return cfg
}

// runFuzzCase generates seed's program and inputs, draws its machine with
// gen, and checks the run against the oracle.
func runFuzzCase(t *testing.T, seed int64, gen func(*rand.Rand, int) Config) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	src := genProgram(r)
	p, err := asm.Assemble(fmt.Sprintf("fuzz-%d", seed), src)
	if err != nil {
		t.Fatalf("seed %d: assemble: %v\nsource:\n%s", seed, err, src)
	}
	threads := 1 + r.Intn(4)
	mode := prog.ModeME
	if r.Intn(2) == 0 && threads > 1 {
		mode = prog.ModeMT
	}
	sharedVal := r.Uint64() % 1024
	perCtxSame := r.Intn(3) == 0 // sometimes identical inputs (Limit-like)
	init := func(ctx int, mem *prog.Memory) {
		v := uint64(ctx) * 37
		if perCtxSame {
			v = 5
		}
		mem.Write64(prog.DataBase, v)
		mem.Write64(prog.DataBase+8, sharedVal)
	}
	// MT shared-memory stores from the scratch region race between
	// threads, which makes oracle comparison against an independent run
	// invalid; keep MT fuzzing to the in-sim oracle by using ME when the
	// program stores. (The generator always may store, so fuzz MT with a
	// shared read-only image: per-thread stores land in the same scratch
	// but threads write identical streams only in the perCtxSame case.)
	if mode == prog.ModeMT && !perCtxSame {
		mode = prog.ModeME
	}

	sys, err := prog.NewSystem(p, mode, threads, init)
	if err != nil {
		t.Fatalf("seed %d: system: %v", seed, err)
	}
	cfg := gen(r, threads)
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatalf("seed %d: core: %v", seed, err)
	}
	for !c.allDone() {
		if err := c.step(); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if err := checkNoFreeUopReachable(c); err != nil {
			t.Fatalf("seed %d: cycle %d: %v", seed, c.now, err)
		}
	}
	st := c.Stats()
	if seed%8 == 0 {
		newSys := func() *prog.System {
			sys, err := prog.NewSystem(p, mode, threads, init)
			if err != nil {
				t.Fatalf("seed %d: system: %v", seed, err)
			}
			return sys
		}
		checkObservedRun(t, seed, cfg, newSys(), st)
		checkRecycledRun(t, seed, cfg, newSys, c)
	}

	if mode == prog.ModeMT {
		// Racy shared writes make an independent replay incomparable;
		// liveness and internal invariants (panics) are the check.
		return
	}
	ref, err := prog.NewSystem(p, mode, threads, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunFunctional(5_000_000); err != nil {
		t.Fatalf("seed %d: oracle: %v", seed, err)
	}
	for i, ctx := range ref.Contexts {
		if st.Committed[i] != ctx.DynCount {
			t.Fatalf("seed %d: thread %d committed %d, oracle %d\nconfig: %+v",
				seed, i, st.Committed[i], ctx.DynCount, cfg)
		}
		for reg := 0; reg < isa.NumRegs; reg++ {
			if got, want := c.CommittedReg(i, uint8(reg)), ctx.State.Reg[reg]; got != want {
				t.Fatalf("seed %d: thread %d reg %d: %#x vs oracle %#x", seed, i, reg, got, want)
			}
		}
	}
}

// checkObservedRun runs the case again with a Collector attached:
// observing must not perturb the run, the stream must carry one EvCycle
// per cycle, and its divergence, remerge and rollback events must match
// the statistics.
func checkObservedRun(t *testing.T, seed int64, cfg Config, sys *prog.System, want *Stats) {
	t.Helper()
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatalf("seed %d: observed core: %v", seed, err)
	}
	col := obs.NewCollector()
	c.Attach(col, 64)
	st, err := c.Run()
	if err != nil {
		t.Fatalf("seed %d: observed run: %v", seed, err)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("seed %d: attaching a recorder changed the run:\nplain:    %+v\nobserved: %+v", seed, want, st)
	}
	counts := map[obs.EventKind]uint64{}
	for _, e := range col.Events {
		counts[e.Kind]++
	}
	for _, chk := range []struct {
		kind obs.EventKind
		want uint64
	}{
		{obs.EvCycle, st.Cycles},
		{obs.EvDiverge, st.Divergences},
		{obs.EvRemerge, st.Remerges},
		{obs.EvRollback, st.LVIPRollbacks},
	} {
		if counts[chk.kind] != chk.want {
			t.Errorf("seed %d: %d %s events, stats say %d", seed, counts[chk.kind], chk.kind, chk.want)
		}
	}
}

// checkRecycledRun replays the case on recycled storage: it runs the
// program on the default machine of the case's storage geometry (another
// window, fetch width and policy), releases that core, and replays cfg on
// the storage it left behind. The replay must match want in every
// statistic and committed register.
func checkRecycledRun(t *testing.T, seed int64, cfg Config, newSys func() *prog.System, want *Core) {
	t.Helper()
	alt := DefaultConfig(cfg.Threads)
	alt.FHBSize, alt.LVIPSize, alt.Mem, alt.Branch, alt.TraceCacheBytes = cfg.FHBSize, cfg.LVIPSize, cfg.Mem, cfg.Branch, cfg.TraceCacheBytes
	alt.MaxCycles = cfg.MaxCycles
	for _, m := range []Config{alt, cfg} {
		c, err := New(m, newSys())
		if err != nil {
			t.Fatalf("seed %d: recycled core: %v", seed, err)
		}
		st, err := c.Run()
		if err != nil {
			t.Fatalf("seed %d: recycled run: %v", seed, err)
		}
		if m == cfg {
			if !reflect.DeepEqual(st, want.Stats()) {
				t.Fatalf("seed %d: recycled storage changed the run:\nfresh:    %+v\nrecycled: %+v", seed, want.Stats(), st)
			}
			for i := 0; i < cfg.Threads; i++ {
				for r := 0; r < isa.NumRegs; r++ {
					if got, w := c.CommittedReg(i, uint8(r)), want.CommittedReg(i, uint8(r)); got != w {
						t.Fatalf("seed %d: recycled thread %d reg %d: %#x, fresh %#x", seed, i, r, got, w)
					}
				}
			}
		}
		c.Release()
	}
}

// checkNoFreeUopReachable asserts the uop recycle invariant (uop.go): no
// uop on the free list is reachable from the fetch queue (or a queued
// uop's split latch), the window, a ROB queue, the ready or executing
// list, the memory queue, lastWriter, a live group's waitBranch or a live
// uop's consumers. It also checks what issue, complete and Core.eff rest
// on: the ready and executing lists hold exactly the window's ready and
// issued uops in seq order, and every member of a live uop still has its
// oracle record buffered.
func checkNoFreeUopReachable(c *Core) error {
	free := func(u *uop) bool { return u != nil && u.state == uopFree }
	buffered := func(u *uop) error {
		if u.state == uopCommitted || u.state == uopSquashed {
			return nil
		}
		for m := u.itid; m != 0; m &= m - 1 {
			t := m.First()
			if s, i := c.streams[t], u.dynIdx[t]; i < s.base || i >= s.end {
				return fmt.Errorf("uop %#x: thread %d's record %d is outside the buffered [%d, %d)", u.pc, t, i, s.base, s.end)
			}
		}
		return nil
	}
	for _, u := range c.fetchQ.uops {
		if free(u) {
			return fmt.Errorf("free uop in fetchQ")
		}
		for _, p := range u.pieces[:u.npieces] {
			if free(p) {
				return fmt.Errorf("free uop in the split latch of %#x", u.pc)
			}
			if err := buffered(p); err != nil {
				return err
			}
		}
		if err := buffered(u); err != nil {
			return err
		}
	}
	var nready, nissued int
	for _, u := range c.window.uops {
		if free(u) {
			return fmt.Errorf("free uop in the window")
		}
		for _, cons := range u.consumers {
			if free(cons) {
				return fmt.Errorf("free uop among the consumers of seq %d", u.seq)
			}
		}
		if err := buffered(u); err != nil {
			return err
		}
		switch u.state {
		case uopReady:
			nready++
		case uopIssued:
			nissued++
		}
	}
	for _, l := range []struct {
		name  string
		uops  []*uop
		state uopState
		n     int
	}{{"ready", c.ready, uopReady, nready}, {"executing", c.executing, uopIssued, nissued}} {
		if len(l.uops) != l.n {
			return fmt.Errorf("%s list holds %d uops, the window %d", l.name, len(l.uops), l.n)
		}
		for i, u := range l.uops {
			if free(u) || u.state != l.state {
				return fmt.Errorf("%s list entry seq %d in state %d", l.name, u.seq, u.state)
			}
			if i > 0 && l.uops[i-1].seq >= u.seq {
				return fmt.Errorf("%s list out of seq order at seq %d", l.name, u.seq)
			}
		}
	}
	for t := range c.robQ {
		for _, u := range c.robQ[t].uops {
			if free(u) {
				return fmt.Errorf("free uop in robQ[%d]", t)
			}
			if err := buffered(u); err != nil {
				return err
			}
		}
	}
	for _, u := range c.memQ {
		if free(u) {
			return fmt.Errorf("free uop in memQ")
		}
	}
	for t := range c.lastWriter {
		for r, u := range c.lastWriter[t] {
			if free(u) {
				return fmt.Errorf("free uop is lastWriter[%d][%d]", t, r)
			}
		}
	}
	for _, g := range c.groups {
		if !g.dead && free(g.waitBranch) {
			return fmt.Errorf("group %s waits on a free uop", g.members)
		}
	}
	return nil
}

// TestFuzzRegressions replays fuzz seeds that once failed, whatever the
// seed budget, each on the machine its seed drew when it failed (genConfig
// has drawn other knobs since): seed 131 livelocked after an LVIP rollback
// made a committed uop the producer of a new consumer.
func TestFuzzRegressions(t *testing.T) {
	machines := map[int64]func(*rand.Rand, int) Config{
		131: func(*rand.Rand, int) Config {
			cfg := DefaultConfig(4)
			cfg.FetchWidth, cfg.RenameWidth, cfg.IssueWidth, cfg.CommitWidth = 16, 16, 2, 2
			cfg.IQSize, cfg.ROBSize, cfg.LSQSize = 16, 32, 8
			cfg.IntALUs, cfg.FPUs, cfg.LSPorts = 3, 1, 3
			cfg.LVIPSize = 64
			cfg.ValidateSplits = true
			cfg.MaxCycles = 10_000_000
			return cfg
		},
	}
	for seed, gen := range machines {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel() // seeds share no state
			runFuzzCase(t, seed, gen)
		})
	}
}

func TestFuzzDifferential(t *testing.T) {
	n := envSeeds(60)
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel() // seeds share no state
			runFuzzCase(t, seed, genConfig)
		})
	}
}

// envSeeds lets CI scale the fuzz budget: MMT_FUZZ_SEEDS=500 go test ...
func envSeeds(def int) int {
	if s := os.Getenv("MMT_FUZZ_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}
