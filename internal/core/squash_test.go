package core

import (
	"testing"

	"mmt/internal/isa"
	"mmt/internal/prog"
)

// lvipStormSrc loads a per-instance value repeatedly through the same
// static load, forcing an LVIP mispredict and rollback on the first
// iteration, with consumers in flight.
const lvipStormSrc = `
        li    r4, input
        li    r7, 60
loop:   ld    r5, 0(r4)          ; differing values across instances
        add   r6, r6, r5         ; consumer 1
        mul   r8, r5, r5         ; consumer 2
        xor   r9, r9, r8         ; consumer chain
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`

func lvipInit(ctx int, mem *prog.Memory) {
	mem.Write64(prog.DataBase, uint64(1000+ctx*111))
}

func TestRollbackPreservesArchitecturalState(t *testing.T) {
	// The heavyweight invariant: after rollbacks, squashes, and
	// refetches, every thread's committed state still matches a pure
	// functional run. runCore checks this internally.
	for _, threads := range []int{2, 3, 4} {
		cfg := DefaultConfig(threads)
		st, _ := runCore(t, cfg, lvipStormSrc, prog.ModeME, lvipInit)
		if st.LVIPRollbacks == 0 {
			t.Errorf("%d threads: no rollback despite divergent load values", threads)
		}
		if st.SquashedUops == 0 {
			t.Errorf("%d threads: rollback squashed nothing", threads)
		}
	}
}

func TestRollbackDoesNotRepeatAfterLearning(t *testing.T) {
	cfg := DefaultConfig(2)
	st, c := runCore(t, cfg, lvipStormSrc, prog.ModeME, lvipInit)
	// One static load: after its first mispredict the LVIP must predict
	// "differ" and split, so rollbacks stay far below iteration count.
	if st.LVIPRollbacks > 5 {
		t.Errorf("rollbacks = %d; LVIP is not learning", st.LVIPRollbacks)
	}
	if c.LVIPStats().PredDiffer == 0 {
		t.Error("LVIP never predicted differing values")
	}
}

// TestRollbackWithAsymmetricValues runs four instances where three share a
// load value and one differs: the merged load's verification must catch
// the single outlier, roll all four back consistently, and the oracle
// cross-check in runCore validates every thread's final state.
func TestRollbackWithAsymmetricValues(t *testing.T) {
	src := `
        li    r4, input
        li    r7, 40
loop:   ld    r5, 0(r4)
        add   r6, r6, r5
        mul   r8, r5, r7
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`
	init := func(ctx int, mem *prog.Memory) {
		v := uint64(7)
		if ctx == 3 {
			v = 99 // single outlier instance
		}
		mem.Write64(prog.DataBase, v)
	}
	cfg := DefaultConfig(4)
	st, _ := runCore(t, cfg, src, prog.ModeME, init)
	if st.LVIPRollbacks == 0 {
		t.Error("expected a rollback from the outlier instance")
	}
}

func TestSquashReleasesStalledGroups(t *testing.T) {
	// A branch that depends on a value-predicted load: when the load
	// rolls back, any group stalled on the (squashed) branch must be
	// released — otherwise fetch deadlocks. The run completing at all is
	// the assertion; runCore's oracle check covers correctness.
	src := `
        li    r4, input
        li    r7, 30
loop:   ld    r5, 0(r4)          ; rolls back (values differ)
        andi  r6, r5, 1
        beqz  r6, even
        addi  r8, r8, 1
        j     next
even:   addi  r9, r9, 1
next:   addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx)) // parity differs
	}
	cfg := DefaultConfig(2)
	st, _ := runCore(t, cfg, src, prog.ModeME, init)
	if st.LVIPRollbacks == 0 {
		t.Error("no rollback in stalled-group scenario")
	}
	if st.Divergences == 0 {
		t.Error("no divergence on parity branch")
	}
}

func TestCommittedValuesSurviveHeavyChurn(t *testing.T) {
	// Mix divergence, rollback, register merging and remerge on one
	// kernel; verify committed register state per thread against the
	// oracle (done by runCore) plus the final accumulator value.
	src := `
        li    r4, input
        ld    r25, 0(r4)
        li    r7, 25
loop:   andi  r6, r25, 1
        beqz  r6, evn
        li    r10, 77
        j     join
evn:    nop
        li    r10, 77
join:   add   r11, r10, r7
        mul   r12, r10, r10
        ld    r13, 8(r4)         ; identical across instances
        add   r14, r13, r11
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0, 31337
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx))
	}
	cfg := DefaultConfig(2)
	st, c := runCore(t, cfg, src, prog.ModeME, init)
	if st.Divergences == 0 {
		t.Error("no divergences in churn test")
	}
	for tid := 0; tid < 2; tid++ {
		if got := c.CommittedReg(tid, 13); got != 31337 {
			t.Errorf("thread %d r13 = %d", tid, got)
		}
		if got := c.CommittedReg(tid, 10); got != 77 {
			t.Errorf("thread %d r10 = %d", tid, got)
		}
	}
}

// TestOracleEquivalenceAcrossConfigs runs one churny kernel over the whole
// configuration matrix; runCore cross-checks committed state against the
// functional oracle every time.
func TestOracleEquivalenceAcrossConfigs(t *testing.T) {
	type knobs struct {
		name string
		mut  func(*Config)
	}
	for _, k := range []knobs{
		{"tiny-rob", func(c *Config) { c.ROBSize = 16; c.IQSize = 8; c.LSQSize = 8 }},
		{"narrow", func(c *Config) { c.FetchWidth = 2; c.IssueWidth = 2; c.CommitWidth = 2; c.RenameWidth = 2 }},
		{"one-alu", func(c *Config) { c.IntALUs = 1; c.FPUs = 1; c.LSPorts = 1 }},
		{"small-fhb", func(c *Config) { c.FHBSize = 2 }},
		{"no-tracecache", func(c *Config) { c.TraceCacheBytes = 0 }},
		{"tiny-lvip", func(c *Config) { c.LVIPSize = 2 }},
		{"wide-machine", func(c *Config) { c.FetchWidth = 16; c.IssueWidth = 16; c.CommitWidth = 16; c.RenameWidth = 16 }},
	} {
		k := k
		t.Run(k.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			k.mut(&cfg)
			runCore(t, cfg, lvipStormSrc, prog.ModeME, lvipInit)
			runCore(t, cfg, divergeSrc, prog.ModeME, func(ctx int, mem *prog.Memory) {
				mem.Write64(prog.DataBase, uint64(ctx%2))
			})
		})
	}
}

func TestActiveWriterAccountingStaysConsistent(t *testing.T) {
	// After a full run every in-flight structure must be empty and
	// writer counters zero.
	cfg := DefaultConfig(2)
	_, c := runCore(t, cfg, lvipStormSrc, prog.ModeME, lvipInit)
	if c.robOcc != 0 || c.iqOcc != 0 || c.lsqOcc != 0 {
		t.Errorf("occupancy leak: rob=%d iq=%d lsq=%d", c.robOcc, c.iqOcc, c.lsqOcc)
	}
	for tid := 0; tid < 2; tid++ {
		for r := 0; r < isa.NumRegs; r++ {
			if c.activeWriters[tid][r] != 0 {
				t.Errorf("thread %d reg %d: %d active writers after drain", tid, r, c.activeWriters[tid][r])
			}
		}
	}
}

// TestSquashRefoldsLatchedSplit: a merged branch waits in the fetch queue
// with its split latched (the uop itself for thread 0, piece 1 for thread
// 1), and thread 1's group, which mispredicted, waits on piece 1. A squash
// of thread 0 alone, as an LVIP rollback of a load merged for thread 0
// and another context performs, invalidates the latch. Piece 1 must be
// recycled, the queued uop must go on for thread 1 and thread 1's group
// must wait on it again, so that the run still ends with the oracle's
// results.
func TestSquashRefoldsLatchedSplit(t *testing.T) {
	const src = `
        tid   r5
        bnez  r5, one            ; thread 1 taken, mispredicted
        addi  r6, r6, 1
one:    addi  r7, r7, 1
        halt
`
	cfg := DefaultConfig(2)
	// The tid's two pieces fill the ROB, so the branch splits but waits.
	cfg.ROBSize, cfg.IQSize = 2, 2
	cfg.MaxCycles = 100_000
	c, err := New(cfg, buildSys(t, src, prog.ModeME, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	var u *uop
	for u == nil || u.npieces != 2 {
		if c.now > 1000 {
			t.Fatal("the branch never waited in the fetch queue with a latched split")
		}
		c.Cycle()
		u = nil
		if q := c.fetchQ.uops; len(q) > 0 && q[0].inst.Op == isa.OpBne {
			u = q[0]
		}
	}
	piece := u.pieces[1]
	if u.itid != ITIDOf(0) || piece.itid != ITIDOf(1) {
		t.Fatalf("latched split %s + %s, want {0} + {1}", u.itid, piece.itid)
	}
	var waiter *group
	for _, g := range c.groups {
		if !g.dead && g.waitBranch == piece {
			waiter = g
		}
	}
	if waiter == nil || waiter.members != ITIDOf(1) {
		t.Fatal("thread 1's group does not wait on piece 1")
	}

	c.squashYounger(ITIDOf(0), c.seq, c.now)

	if piece.state != uopFree {
		t.Error("the dropped piece was not recycled")
	}
	if waiter.waitBranch != u {
		t.Error("thread 1's group does not wait on the queued uop")
	}
	if len(c.fetchQ.uops) == 0 || c.fetchQ.uops[0] != u || u.itid != ITIDOf(1) || u.fetchITID != ITIDOf(1) || u.npieces != 0 {
		t.Fatalf("the queued branch did not stay on for thread 1 with no latch (itid %s)", u.itid)
	}
	if err := checkNoFreeUopReachable(c); err != nil {
		t.Fatal(err)
	}
	runToOracle(t, c, src, prog.ModeME, nil)
}
