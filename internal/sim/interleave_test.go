package sim

import (
	"fmt"
	"testing"

	"mmt/internal/isa"
	"mmt/internal/prog"
	"mmt/internal/workloads"
)

// productionLog wraps one context's memory image and folds every access
// into a shared FNV-style hash together with the accessing context and the
// dynamic index of the record being produced. The oracle touches memory
// only while it produces a record (prog.Context.Step, driven by the first
// stream.peek of that record), and in a multi-threaded system every
// context shares one image, so the access order is exactly the interleaving
// that decides which value each load sees. The wrapper lives only in the
// test's system: an unhooked run does no extra work.
type productionLog struct {
	inner isa.Memory
	ctx   *prog.Context
	hash  *uint64
	n     *uint64
}

func (l productionLog) note(addr uint64, store bool) {
	h := *l.hash
	for _, v := range []uint64{uint64(l.ctx.ID), l.ctx.DynCount, addr, b2u(store)} {
		h ^= v
		h *= 0x100000001b3
	}
	*l.hash = h
	*l.n++
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (l productionLog) Read64(addr uint64) uint64 {
	l.note(addr, false)
	return l.inner.Read64(addr)
}

func (l productionLog) Write64(addr, val uint64) {
	l.note(addr, true)
	l.inner.Write64(addr, val)
}

// productionOrder runs one point unhooked (no recorder: attaching one adds
// peeks of its own) and returns the hash of its (context, dynamic index)
// memory production order, the number of accesses it folded, and the
// final per-context production counts.
func productionOrder(t *testing.T, app workloads.App, p Preset, threads int) (uint64, uint64, [4]uint64) {
	t.Helper()
	hash, n := uint64(0xcbf29ce484222325), uint64(0)
	var sys *prog.System
	task := Task{App: app, Preset: p, Threads: threads, Build: func() (*prog.System, error) {
		s, err := app.Build(threads, p.IdenticalInputs())
		if err != nil {
			return nil, err
		}
		for _, c := range s.Contexts {
			c.Mem = productionLog{inner: c.Mem, ctx: c, hash: &hash, n: &n}
		}
		sys = s
		return s, nil
	}}
	c, err := task.Core()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var counts [4]uint64
	for i, ctx := range sys.Contexts {
		counts[i] = ctx.DynCount
	}
	return hash, n, counts
}

// TestOracleInterleavingPinned pins the order in which the timing model
// produces oracle records on two multi-threaded kernels. A record is
// produced by the first stream.peek of its index, and the bookkeeping
// peeks (Run's allDone, attemptMerges, fetchOrder/canFetch,
// pruneExhausted) produce records too, so a change that adds, drops or
// reorders a peek can change which value a shared-memory load returns
// even where every other test still passes.
func TestOracleInterleavingPinned(t *testing.T) {
	want := map[string]string{
		"fft/Base/2T":      "665d1f7ecf076ced n=10240 dyn=[14465 14466]",
		"fft/Base/4T":      "70f6dc53e6859e3d n=20480 dyn=[14465 14466 14465 14466]",
		"fft/MMT-FXR/2T":   "55a763ef72ffad9d n=10240 dyn=[14465 14466]",
		"fft/MMT-FXR/4T":   "257e335a0447d77d n=20480 dyn=[14465 14466 14465 14466]",
		"ocean/Base/2T":    "358ab2e631f5a2ff n=31372 dyn=[51139 51137]",
		"ocean/Base/4T":    "22bf900647872643 n=62744 dyn=[51139 51137 51139 51139]",
		"ocean/MMT-FXR/2T": "f48ae19363b60edb n=31372 dyn=[51139 51137]",
		"ocean/MMT-FXR/4T": "d9cc6eabdd6bef97 n=62744 dyn=[51139 51137 51139 51139]",
	}
	for _, name := range []string{"fft", "ocean"} {
		app, ok := workloads.ByName(name)
		if !ok || app.Mode != prog.ModeMT {
			t.Fatalf("%s: not a multi-threaded kernel", name)
		}
		for _, p := range []Preset{PresetBase, PresetMMTFXR} {
			for _, threads := range []int{2, 4} {
				key := fmt.Sprintf("%s/%s/%dT", name, p, threads)
				h, n, counts := productionOrder(t, app, p, threads)
				got := fmt.Sprintf("%016x n=%d dyn=%v", h, n, counts[:threads])
				if got != want[key] {
					t.Errorf("%s: production order %s, want %s\n"+
						"a change moved a stream.peek: the oracle now produces records in another order, "+
						"which can change what shared-memory loads return (see core/stream.go)", key, got, want[key])
				}
			}
		}
	}
}
