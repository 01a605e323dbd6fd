package workloads

import (
	"slices"
	"strings"
	"testing"

	"mmt/internal/core"
	"mmt/internal/prog"
)

func TestMPRegistrySeparation(t *testing.T) {
	mp := MP()
	if len(mp) != 3 {
		t.Fatalf("MP suite has %d apps, want 3", len(mp))
	}
	for _, a := range mp {
		if a.Mode != prog.ModeMP {
			t.Errorf("%s mode = %v", a.Name, a.Mode)
		}
	}
	// The paper registry stays at sixteen.
	if len(All()) != 16 {
		t.Errorf("All() = %d apps", len(All()))
	}
}

// TestMPFunctionalProtocols runs each MP kernel functionally and checks
// the channel protocols complete (round-robin functional interleaving).
func TestMPFunctionalProtocols(t *testing.T) {
	for _, a := range MP() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			n := a.Ranks[0]
			sys, err := a.Build(n, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunFunctional(3_000_000); err != nil {
				t.Fatal(err)
			}
			for _, ctx := range sys.Contexts {
				if !ctx.Halted() {
					t.Errorf("rank %d did not halt", ctx.ID)
				}
			}
		})
	}
}

// TestMPOnCore runs the MP kernels through the full MMT pipeline; the spin
// loops make instruction counts timing-dependent, so the checks are
// liveness, mode sanity, and channel-sum invariants via committed state.
func TestMPOnCore(t *testing.T) {
	for _, a := range MP() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			n := a.Ranks[0]
			for _, preset := range []struct {
				name               string
				fetch, exec, merge bool
			}{
				{"base", false, false, false},
				{"mmt", true, true, true},
			} {
				sys, err := a.Build(n, false)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.DefaultConfig(n)
				cfg.SharedFetch, cfg.SharedExec, cfg.RegMerge = preset.fetch, preset.exec, preset.merge
				cfg.MaxCycles = 30_000_000
				c, err := core.New(cfg, sys)
				if err != nil {
					t.Fatal(err)
				}
				st, err := c.Run()
				if err != nil {
					t.Fatalf("%s: %v", preset.name, err)
				}
				if st.TotalCommitted() == 0 {
					t.Fatalf("%s: nothing committed", preset.name)
				}
				// Every rank completed all rounds: r20 counted to zero.
				for rank := 0; rank < n; rank++ {
					if got := c.CommittedReg(rank, 20); got != 0 {
						t.Errorf("%s: rank %d round counter = %d", preset.name, rank, got)
					}
				}
			}
		})
	}
}

// TestMPSharesMailboxLoads checks that allreduce's gather produces merged
// shared-window loads under MMT (the extension's headline behaviour).
func TestMPSharesMailboxLoads(t *testing.T) {
	a, _ := ByName("allreduce-mp")
	sys, err := a.Build(4, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4)
	cfg.MaxCycles = 30_000_000
	c, err := core.New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecIdentical == 0 {
		t.Error("no merged execution in allreduce-mp")
	}
}

// TestMPPingpongSum verifies the exchanged payload arithmetic end to end:
// each rank receives the partner's (round-invariant) payload every round.
func TestMPPingpongSum(t *testing.T) {
	a, _ := ByName("pingpong-mp")
	sys, err := a.Build(2, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(2)
	cfg.MaxCycles = 30_000_000
	c, err := core.New(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	const rounds = 140
	for rank := 0; rank < 2; rank++ {
		partner := uint64(rank ^ 1)
		want := rounds * (partner*partner + 5)
		if got := c.CommittedReg(rank, 22); got != want {
			t.Errorf("rank %d payload sum = %d, want %d", rank, got, want)
		}
		// r23 accumulates the round numbers 1..ROUNDS exactly once each.
		if got := c.CommittedReg(rank, 23); got != rounds*(rounds+1)/2 {
			t.Errorf("rank %d round sum = %d", rank, got)
		}
	}
}

// TestMPBuildChecksRanks: each MP kernel builds at every rank count it
// lists and refuses every other count, naming the ones it accepts.
func TestMPBuildChecksRanks(t *testing.T) {
	for _, a := range MP() {
		if len(a.Ranks) == 0 {
			t.Errorf("%s lists no rank counts", a.Name)
		}
		for n := 1; n <= core.MaxThreads; n++ {
			_, err := a.Build(n, false)
			switch {
			case slices.Contains(a.Ranks, n) && err != nil:
				t.Errorf("%s at %d ranks refused: %v", a.Name, n, err)
			case !slices.Contains(a.Ranks, n) && (err == nil || !strings.Contains(err.Error(), "ranks, not")):
				t.Errorf("%s at %d ranks: got %v, want an error naming the accepted counts", a.Name, n, err)
			}
		}
	}
	for _, a := range All() {
		if a.Ranks != nil {
			t.Errorf("paper app %s restricts its thread count to %v", a.Name, a.Ranks)
		}
	}
}

func TestMPRejectsTooManyRanks(t *testing.T) {
	a, _ := ByName("pingpong-mp")
	if _, err := a.Build(5, false); err == nil {
		t.Error("5 ranks accepted")
	}
}
