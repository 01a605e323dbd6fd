package core

import (
	"testing"

	"mmt/internal/prog"
)

// Targeted coverage of configuration knobs on small programs; every run
// is oracle-checked by runCore.

func TestSyncNoneStillMergesAtPCCoincidence(t *testing.T) {
	// Identical instances never diverge, so even SyncNone keeps them
	// merged from the entry point.
	cfg := DefaultConfig(2)
	cfg.Sync = SyncNone
	st, _ := runCore(t, cfg, loopSrc, prog.ModeME, nil)
	ei, _, _, _ := st.IdenticalFractions()
	if ei < 0.99 {
		t.Errorf("SyncNone exec-identical = %f on identical instances", ei)
	}
	if st.FHBSearches != 0 {
		t.Error("SyncNone searched FHBs")
	}
}

func TestSyncNoneDivergedBehaviour(t *testing.T) {
	// With divergence, SyncNone relies purely on PC coincidence: no
	// catchup episodes, no FHB activity, and the run still completes
	// correctly (oracle-checked by runCore). Which policy merges more is
	// workload-dependent (see the sync ablation), so no ordering is
	// asserted here.
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfgN := DefaultConfig(2)
	cfgN.Sync = SyncNone
	stN, _ := runCore(t, cfgN, divergeSrc, prog.ModeME, init)
	if stN.CatchupsStarted != 0 || stN.FHBInserts != 0 {
		t.Errorf("SyncNone used the detector: catchups=%d inserts=%d",
			stN.CatchupsStarted, stN.FHBInserts)
	}
	if stN.Divergences == 0 {
		t.Error("no divergences on divergent inputs")
	}
}

func TestWrongPathFetchAccounting(t *testing.T) {
	// A hard-to-predict branch outside trace coverage burns wrong-path
	// fetch slots while resolving.
	src := `
        li    r4, input
        ld    r25, 0(r4)
        li    r5, 400
loop:   mul   r25, r25, r25
        addi  r25, r25, 13
        srli  r6, r25, 7
        andi  r6, r6, 1
        beqz  r6, skip
        addi  r7, r7, 1
skip:   addi  r5, r5, -1
        bnez  r5, loop
        halt
        .data
input:  .word 99
`
	cfg := DefaultConfig(1)
	cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge = false, false, false
	cfg.TraceCacheBytes = 0 // no perfect trace prediction
	st, _ := runCore(t, cfg, src, prog.ModeME, nil)
	if st.Mispredicts == 0 {
		t.Fatal("no mispredicts on a random branch")
	}
	if st.WrongPathFetchSlots == 0 {
		t.Error("no wrong-path fetch accounted during branch resolution")
	}
}

func TestCatchupAbortValve(t *testing.T) {
	// The liveness valve: catchups that fail to converge are abandoned
	// rather than gating the ahead thread forever. Exercised by apps with
	// false-positive-prone FHB contents; here just verify the counter
	// stays consistent on a divergent kernel.
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfg := DefaultConfig(2)
	cfg.FHBSize = 2 // tiny history: catchup matches go stale quickly
	st, _ := runCore(t, cfg, divergeSrc, prog.ModeME, init)
	if st.CatchupsStarted < st.CatchupsAborted {
		t.Errorf("aborted (%d) exceeds started (%d)", st.CatchupsAborted, st.CatchupsStarted)
	}
}

func TestHintParkTimeout(t *testing.T) {
	// Under SyncHints with a partner that never reaches the hint, the
	// parked group must resume after the timeout (liveness).
	src := `
        li    r4, input
        ld    r5, 0(r4)
        li    r7, 40
loop:   bnez  r5, odd
        addi  r8, r8, 1
        addi  r8, r8, 2
        j     join
odd:    addi  r9, r9, 1
        addi  r9, r9, 2
        addi  r9, r9, 3
join:   addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfg := DefaultConfig(2)
	cfg.Sync = SyncHints
	cfg.HintParkTimeout = 25
	st, _ := runCore(t, cfg, src, prog.ModeME, init)
	if st.HintParks == 0 {
		t.Error("hints policy never parked on a divergent kernel")
	}
}

func TestRegMergePortsZeroDisables(t *testing.T) {
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	src := `
        li    r4, input
        ld    r5, 0(r4)
        bnez  r5, other
        li    r6, 99
        j     join
other:  nop
        li    r6, 99
join:   li    r7, 200
loop:   add   r8, r6, r7
        addi  r7, r7, -1
        bnez  r7, loop
        halt
        .data
input:  .word 0
`
	cfg := DefaultConfig(2)
	cfg.RegMergePorts = 0
	st, _ := runCore(t, cfg, src, prog.ModeME, init)
	if st.RegMergeCompares != 0 || st.RegMergeHits != 0 {
		t.Errorf("zero ports still compared: %d/%d", st.RegMergeCompares, st.RegMergeHits)
	}
}

func TestGatedAheadGroupStillRemerges(t *testing.T) {
	// The ahead group fetches only in cycles where no group catching up
	// to it can; the behind group must still close the gap and remerge.
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	st, _ := runCore(t, DefaultConfig(2), divergeSrc, prog.ModeME, init)
	// Correctness is the oracle check; the run must also still remerge.
	if st.CatchupsStarted == 0 {
		t.Error("no catchup on a divergent kernel")
	}
	if st.Remerges == 0 {
		t.Error("gated catchup never remerged")
	}
}

func TestValidateSplitsInvariant(t *testing.T) {
	// Run a churny kernel with the split-network cross-check armed; a
	// panic fails the test.
	init := func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx%2))
	}
	cfg := DefaultConfig(2)
	cfg.ValidateSplits = true
	runCore(t, cfg, divergeSrc, prog.ModeME, init)
	cfg4 := DefaultConfig(4)
	cfg4.ValidateSplits = true
	runCore(t, cfg4, lvipStormSrc, prog.ModeME, lvipInit)
}
