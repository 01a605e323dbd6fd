package core

import (
	"strings"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/isa"
	"mmt/internal/prog"
)

// buildSys assembles src and builds an n-context system.
func buildSys(t *testing.T, src string, mode prog.Mode, n int, init prog.InitFunc) *prog.System {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := prog.NewSystem(p, mode, n, init)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runCore simulates src under cfg and cross-checks the timing model
// against a pure functional run: per-thread committed instruction counts
// and final committed register values must match the oracle exactly.
func runCore(t *testing.T, cfg Config, src string, mode prog.Mode, init prog.InitFunc) (*Stats, *Core) {
	t.Helper()
	sys := buildSys(t, src, mode, cfg.Threads, init)
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2_000_000
	}
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	return runToOracle(t, c, src, mode, init), c
}

// runToOracle runs c, which simulates src, to the end and checks its
// per-thread committed instruction counts and register values against a
// pure functional run.
func runToOracle(t *testing.T, c *Core, src string, mode prog.Mode, init prog.InitFunc) *Stats {
	t.Helper()
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildSys(t, src, mode, c.cfg.Threads, init)
	if err := ref.RunFunctional(10_000_000); err != nil {
		t.Fatal(err)
	}
	for i, ctx := range ref.Contexts {
		if st.Committed[i] != ctx.DynCount {
			t.Errorf("thread %d committed %d instructions, oracle ran %d", i, st.Committed[i], ctx.DynCount)
		}
		for r := 0; r < isa.NumRegs; r++ {
			if got, want := c.CommittedReg(i, uint8(r)), ctx.State.Reg[r]; got != want {
				t.Errorf("thread %d reg %d: committed %#x, oracle %#x", i, r, got, want)
			}
		}
	}
	return st
}

const loopSrc = `
        li    r5, 0
        li    r6, 50
loop:   add   r5, r5, r6
        addi  r6, r6, -1
        bnez  r6, loop
        halt
`

func TestSingleThreadBaseline(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge = false, false, false
	st, _ := runCore(t, cfg, loopSrc, prog.ModeME, nil)
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Errorf("cycles=%d ipc=%f", st.Cycles, st.IPC())
	}
	// 2 + 50*3 + 1 = 153 dynamic instructions.
	if st.Committed[0] != 153 {
		t.Errorf("committed = %d", st.Committed[0])
	}
}

func TestIdenticalThreadsFullyMerge(t *testing.T) {
	// Two identical ME instances (the paper's Limit setup): everything
	// except the initial fetch should be execute-identical.
	cfg := DefaultConfig(2)
	st, _ := runCore(t, cfg, loopSrc, prog.ModeME, nil)
	ei, _, _, ni := st.IdenticalFractions()
	if ei < 0.99 {
		t.Errorf("exec-identical fraction = %f, want ~1", ei)
	}
	if ni != 0 {
		t.Errorf("not-identical fraction = %f", ni)
	}
	merge, _, _ := st.FetchModeFractions()
	if merge < 0.99 {
		t.Errorf("MERGE fraction = %f", merge)
	}
	if st.Divergences != 0 {
		t.Errorf("divergences = %d", st.Divergences)
	}
}

// wideLoopSrc has a wide, mostly independent loop body: with several
// threads the baseline contends for fetch bandwidth and ALUs, which is
// where merged fetch/execution pays off.
const wideLoopSrc = `
        li    r6, 600
loop:   add   r10, r10, r6
        add   r11, r11, r6
        add   r12, r12, r6
        add   r13, r13, r6
        add   r14, r14, r6
        add   r15, r15, r6
        add   r16, r16, r6
        add   r17, r17, r6
        add   r18, r10, r11
        add   r19, r12, r13
        xor   r20, r18, r19
        add   r21, r21, r20
        addi  r6, r6, -1
        bnez  r6, loop
        halt
`

func TestMergedFasterThanBase(t *testing.T) {
	base := DefaultConfig(4)
	base.SharedFetch, base.SharedExec, base.RegMerge = false, false, false
	stBase, _ := runCore(t, base, wideLoopSrc, prog.ModeME, nil)

	mmt := DefaultConfig(4)
	stMMT, _ := runCore(t, mmt, wideLoopSrc, prog.ModeME, nil)

	if stMMT.Cycles >= stBase.Cycles {
		t.Errorf("MMT %d cycles, base %d cycles: no speedup on identical threads", stMMT.Cycles, stBase.Cycles)
	}
}

// divergeSrc makes the two ME instances take different paths depending on
// a per-instance input, then re-join at "join".
const divergeSrc = `
        li    r4, input
        ld    r5, 0(r4)          ; per-instance input: 0 or 1
        li    r6, 0
        li    r7, 20
outer:  bnez  r5, odd
        addi  r6, r6, 1          ; even path
        addi  r6, r6, 3
        j     join
odd:    addi  r6, r6, 2         ; odd path: different length
        addi  r6, r6, 1
        addi  r6, r6, 1
join:   addi  r7, r7, -1
        bnez  r7, outer
        halt
        .data
input:  .word 0
`

func TestDivergenceAndRemerge(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfg := DefaultConfig(2)
	st, _ := runCore(t, cfg, divergeSrc, prog.ModeME, init)
	if st.Divergences == 0 {
		t.Error("no divergences on divergent inputs")
	}
	if st.Remerges == 0 {
		t.Error("threads never remerged")
	}
	m, d, cu := st.FetchModeFractions()
	if m == 0 || d == 0 {
		t.Errorf("mode fractions merge=%f detect=%f catchup=%f", m, d, cu)
	}
}

func TestLVIPRollback(t *testing.T) {
	// Both instances load the same address but see different values:
	// the LVIP first predicts identical and must roll back.
	src := `
        li    r4, input
        li    r7, 10
loop:   ld    r5, 0(r4)
        add   r6, r6, r5
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 5
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(100+ctx))
	}
	cfg := DefaultConfig(2)
	st, c := runCore(t, cfg, src, prog.ModeME, init)
	if st.LVIPRollbacks == 0 {
		t.Error("no LVIP rollback despite differing load values")
	}
	if c.LVIPStats().Mispredicts == 0 {
		t.Error("LVIP did not record the mispredict")
	}
	// After learning, later iterations split the load: rollbacks must be
	// far fewer than iterations.
	if st.LVIPRollbacks > 3 {
		t.Errorf("LVIP kept mispredicting: %d rollbacks", st.LVIPRollbacks)
	}
}

func TestLVIPIdenticalValuesStayMerged(t *testing.T) {
	// ME instances with identical memory: loads verify clean.
	src := `
        li    r4, input
        ld    r5, 0(r4)
        add   r6, r6, r5
        halt
        .data
input:  .word 42
`
	cfg := DefaultConfig(2)
	st, _ := runCore(t, cfg, src, prog.ModeME, nil)
	if st.LVIPRollbacks != 0 {
		t.Errorf("rollbacks = %d on identical memory", st.LVIPRollbacks)
	}
	if st.ExecIdentical == 0 {
		t.Error("nothing executed merged")
	}
}

func TestMultiThreadedSharedMemory(t *testing.T) {
	// MT: threads write to disjoint stack slots, read shared data.
	src := `
        tid   r4
        li    r5, shared
        ld    r6, 0(r5)           ; shared load: same address+space
        add   r7, r6, r4
        st    r7, -8(sp)          ; per-thread stack
        ld    r8, -8(sp)
        halt
        .data
shared: .word 7
`
	cfg := DefaultConfig(2)
	st, _ := runCore(t, cfg, src, prog.ModeMT, nil)
	if st.TotalCommitted() != 14 {
		t.Errorf("committed = %d", st.TotalCommitted())
	}
	// tid writes different values but the instructions are fetched
	// together; downstream uses of r4 split.
	if st.FetchIdenticalOnly == 0 {
		t.Error("no fetch-identical-only instructions despite tid split")
	}
}

func TestFourThreads(t *testing.T) {
	cfg := DefaultConfig(4)
	st, _ := runCore(t, cfg, loopSrc, prog.ModeME, nil)
	ei, _, _, _ := st.IdenticalFractions()
	if ei < 0.99 {
		t.Errorf("4-thread exec-identical = %f", ei)
	}
	for th := 0; th < 4; th++ {
		if st.Committed[th] != 153 {
			t.Errorf("thread %d committed %d", th, st.Committed[th])
		}
	}
}

// TestMinimalWindows: Validate's window floor is tight. A ROB, IQ and
// LSQ of exactly Threads entries still admit a shared fetch's pieces, and
// a divergent kernel whose loads and stores split per thread runs to the
// oracle's result; one entry fewer is refused.
func TestMinimalWindows(t *testing.T) {
	src := `
        li    r4, input
        ld    r5, 0(r4)          ; per-instance input: 0 or 1
        li    r7, 30
loop:   ld    r6, 8(r4)          ; same address, per-instance value
        add   r6, r6, r5
        st    r6, 8(r4)
        bnez  r5, odd
        addi  r8, r8, 1
        j     join
odd:    addi  r8, r8, 2
        addi  r8, r8, 1
join:   addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
        .word 0
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
		mem.Write64(prog.DataBase+8, uint64(ctx))
	}
	for _, exec := range []bool{false, true} { // MMT-F, MMT-FXR
		cfg := DefaultConfig(4)
		cfg.SharedExec, cfg.RegMerge = exec, exec
		cfg.ROBSize, cfg.IQSize, cfg.LSQSize = 4, 4, 4
		st, _ := runCore(t, cfg, src, prog.ModeME, init)
		if st.Divergences == 0 {
			t.Errorf("shared exec %v: no divergences on divergent inputs", exec)
		}
		for _, window := range []*int{&cfg.ROBSize, &cfg.IQSize, &cfg.LSQSize} {
			*window = 3
			if err := cfg.Validate(); err == nil {
				t.Errorf("shared exec %v: a 3-entry window at 4 threads accepted", exec)
			}
			*window = 4
		}
	}
}

func TestMMTFSplitsEverything(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.SharedExec, cfg.RegMerge = false, false // MMT-F
	st, _ := runCore(t, cfg, loopSrc, prog.ModeME, nil)
	if st.ExecIdentical != 0 || st.ExecIdentRegMerge != 0 {
		t.Error("MMT-F executed instructions merged")
	}
	if st.FetchIdenticalOnly == 0 {
		t.Error("MMT-F found no fetch-identical instructions")
	}
}

func TestRegisterMergingRecovers(t *testing.T) {
	// Instances diverge, both paths write the same value to r6, then
	// loop over r6-dependent work. Without register merging the post-
	// divergence instructions stay split; with it they re-merge.
	src := `
        li    r4, input
        ld    r5, 0(r4)
        bnez  r5, other
        li    r6, 99
        j     join
other:  nop
        li    r6, 99
join:   li    r7, 400
loop:   add   r8, r6, r7
        mul   r9, r6, r6
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	with := DefaultConfig(2)
	stWith, _ := runCore(t, with, src, prog.ModeME, init)

	without := DefaultConfig(2)
	without.RegMerge = false
	stWithout, _ := runCore(t, without, src, prog.ModeME, init)

	if stWith.RegMergeHits == 0 {
		t.Error("register merging never fired")
	}
	if stWith.ExecIdentRegMerge == 0 {
		t.Error("no instructions attributed to register merging")
	}
	tot := func(s *Stats) uint64 { return s.ExecIdentical + s.ExecIdentRegMerge }
	if tot(stWith) <= tot(stWithout) {
		t.Errorf("regmerge did not increase merged execution: with=%d without=%d",
			tot(stWith), tot(stWithout))
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.SharedFetch = false // SharedExec still true: invalid
	if _, err := New(cfg, buildSys(t, loopSrc, prog.ModeME, 2, nil)); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = DefaultConfig(0)
	if err := cfg.Validate(); err == nil {
		t.Error("0 threads accepted")
	}
	cfg = DefaultConfig(2)
	cfg.SharedExec = false // RegMerge still true
	if err := cfg.Validate(); err == nil {
		t.Error("regmerge without shared exec accepted")
	}
	cfg = DefaultConfig(2)
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestThreadMismatch(t *testing.T) {
	sys := buildSys(t, loopSrc, prog.ModeME, 2, nil)
	if _, err := New(DefaultConfig(4), sys); err == nil {
		t.Error("thread/context mismatch accepted")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxCycles = 10
	sys := buildSys(t, loopSrc, prog.ModeME, 1, nil)
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("MaxCycles did not abort")
	}
}

func TestMaxInstsCapsRun(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxInsts = 20
	sys := buildSys(t, loopSrc, prog.ModeME, 1, nil)
	c, err := New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed[0] != 20 {
		t.Errorf("committed = %d, want 20", st.Committed[0])
	}
}

func TestStatsHelpers(t *testing.T) {
	var st Stats
	st.RecordRemergeDistance(10)
	st.RecordRemergeDistance(100)
	st.RecordRemergeDistance(600)
	if st.RemergeDistance[0] != 1 || st.RemergeDistance[3] != 1 || st.RemergeDistance[6] != 1 {
		t.Errorf("histogram %v", st.RemergeDistance)
	}
	if w := st.RemergeWithin(512); w < 0.66 || w > 0.67 {
		t.Errorf("within 512 = %f", w)
	}
	if w := st.RemergeWithin(16); w < 0.33 || w > 0.34 {
		t.Errorf("within 16 = %f", w)
	}
}

// rollbackStormSrc keeps four ME instances diverging, remerging and
// rolling back for as long as a test runs: both loads return different
// values per instance, and with a one-entry LVIP each evicts the other's
// mispredict record, so every merged execution of either load rolls back.
// Only instance 2 takes the branch, which splits any group holding it.
const rollbackStormSrc = `
        li    r4, input
        li    r7, 100000000
loop:   ld    r5, 0(r4)
        ld    r6, 8(r4)
        add   r9, r5, r6
        andi  r8, r9, 3
        beqz  r8, even
        addi  r10, r10, 1
        j     join
even:   addi  r11, r11, 1
        addi  r11, r11, 2
join:   addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0, 0
`

// TestCycleSteadyStateZeroAllocs pins the cycle loop's allocation story:
// once the uop and group free lists, the queues and the record rings have
// grown to their working size, a cycle allocates nothing, including
// cycles that diverge, remerge and roll back.
func TestCycleSteadyStateZeroAllocs(t *testing.T) {
	wideForever := strings.Replace(wideLoopSrc, "li    r6, 600", "li    r6, 100000000", 1)
	if wideForever == wideLoopSrc {
		t.Fatal("wideLoopSrc no longer sets its trip count with li r6, 600")
	}
	stormCfg := DefaultConfig(4)
	stormCfg.LVIPSize = 1
	for _, tc := range []struct {
		name  string
		src   string
		cfg   Config
		init  prog.InitFunc
		churn bool // the measured cycles must diverge, remerge and roll back
	}{
		{"wide-loop-2T", wideForever, DefaultConfig(2), nil, false},
		{"rollback-storm-4T", rollbackStormSrc, stormCfg, func(ctx int, mem *prog.Memory) {
			mem.Write64(prog.DataBase, uint64(1000+ctx*111))
			mem.Write64(prog.DataBase+8, uint64(2+ctx*2))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.cfg, buildSys(t, tc.src, prog.ModeME, tc.cfg.Threads, tc.init))
			if err != nil {
				t.Fatal(err)
			}
			burst := func() {
				for i := 0; i < 1000; i++ {
					c.Cycle()
				}
			}
			for i := 0; i < 20; i++ { // warm-up
				burst()
			}
			before := *c.Stats()
			if allocs := testing.AllocsPerRun(5, burst); allocs != 0 {
				t.Errorf("a 1000-cycle burst allocates %v times", allocs)
			}
			after := c.Stats()
			if c.allDone() {
				t.Fatal("the program finished before the measured cycles ended")
			}
			if tc.churn && (after.Divergences == before.Divergences ||
				after.Remerges == before.Remerges || after.LVIPRollbacks == before.LVIPRollbacks) {
				t.Errorf("measured cycles did not churn: divergences %d->%d, remerges %d->%d, rollbacks %d->%d",
					before.Divergences, after.Divergences, before.Remerges, after.Remerges,
					before.LVIPRollbacks, after.LVIPRollbacks)
			}
		})
	}
}
