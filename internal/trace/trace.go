// Package trace implements the paper's profiling methodology (§3.2–3.3):
// it captures committed-path instruction traces from the functional oracle,
// aligns the traces of different threads by finding their common subtraces,
// and classifies every dynamic instruction as execute-identical,
// fetch-identical, or not identical (Fig. 1), while measuring the
// difference in length of divergent execution paths in taken branches
// (Fig. 2).
//
// This is a limit study independent of the MMT hardware: it measures how
// much redundancy exists, not how much the mechanisms capture.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mmt/internal/isa"
	"mmt/internal/prog"
)

// Record is one dynamic instruction of one thread.
type Record struct {
	PC    uint64
	Taken bool
	// Sig summarizes the computation: opcode, source operand values and
	// (for loads) the loaded value. Two aligned records with equal PC
	// and equal Sig are execute-identical.
	Sig uint64
}

// Capture runs ctx functionally to completion (or maxInsts) and returns
// its trace.
func Capture(ctx *prog.Context, maxInsts int) ([]Record, error) {
	return capture(ctx, maxInsts, nil)
}

// capture appends ctx's trace to out, which may come presized.
func capture(ctx *prog.Context, maxInsts int, out []Record) ([]Record, error) {
	var eff isa.Effect
	for !ctx.Halted() && len(out) < maxInsts {
		inst, ok := ctx.Prog.InstAt(ctx.State.PC)
		if !ok {
			return nil, fmt.Errorf("trace: context %d: PC %#x outside text", ctx.ID, ctx.State.PC)
		}
		pc := ctx.State.PC
		sig := sigInit(inst)
		srcs, n := inst.Sources()
		for i := 0; i < n; i++ {
			sig = sigMix(sig, ctx.State.Reg[srcs[i]])
		}
		if _, err := ctx.Step(&eff); err != nil {
			return nil, err
		}
		if eff.IsMem && !eff.IsStore {
			sig = sigMix(sig, eff.LoadVal)
		}
		out = append(out, Record{PC: pc, Taken: eff.Taken, Sig: sig})
	}
	return out, nil
}

func sigInit(inst isa.Inst) uint64 {
	w, err := inst.Encode()
	if err != nil {
		w = uint64(inst.Op)
	}
	return sigMix(0x9e3779b97f4a7c15, w)
}

func sigMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// Class is the Fig. 1 classification.
type Class uint8

const (
	NotIdentical Class = iota
	FetchIdentical
	ExecuteIdentical
)

// DistBuckets are the Fig. 2 histogram bucket bounds (taken branches).
var DistBuckets = []uint64{16, 32, 64, 128, 256, 512}

// Profile is the result of aligning two traces.
type Profile struct {
	// Counts are per-thread dynamic instructions in each class (both
	// threads counted, as in Fig. 1).
	ExecuteIdentical uint64
	FetchIdentical   uint64
	NotIdentical     uint64

	// Divergences is the number of divergent regions found.
	Divergences uint64
	// LenDiff histograms |len(pathA) - len(pathB)| in taken branches per
	// divergence; the last bin is "> 512".
	LenDiff [7]uint64
}

// Total returns the classified per-thread instruction count.
func (p *Profile) Total() uint64 {
	return p.ExecuteIdentical + p.FetchIdentical + p.NotIdentical
}

// Fractions returns the Fig. 1 fractions.
func (p *Profile) Fractions() (execIdent, fetchIdent, notIdent float64) {
	t := float64(p.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(p.ExecuteIdentical) / t, float64(p.FetchIdentical) / t, float64(p.NotIdentical) / t
}

// DiffWithin returns the fraction of divergences whose length difference
// is within bound taken branches (Fig. 2 reading).
func (p *Profile) DiffWithin(bound uint64) float64 {
	var total, within uint64
	for i, c := range p.LenDiff {
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

func (p *Profile) recordDiff(d uint64) {
	for i, b := range DistBuckets {
		if d <= b {
			p.LenDiff[i]++
			return
		}
	}
	p.LenDiff[len(DistBuckets)]++
}

// AlignConfig tunes the common-subtrace search.
type AlignConfig struct {
	// Window bounds how far ahead the reconvergence search looks in each
	// trace (dynamic instructions).
	Window int
	// MinRun is the number of consecutive matching PCs required to call
	// two positions reconverged (suppresses accidental single-PC
	// matches).
	MinRun int
}

// DefaultAlignConfig mirrors the paper's "common subtraces" methodology
// with a generous search window.
func DefaultAlignConfig() AlignConfig {
	return AlignConfig{Window: 4096, MinRun: 4}
}

// Align walks two traces in lockstep, classifying matched instructions and
// measuring divergent regions, per §3.2–3.3.
func Align(a, b []Record, cfg AlignConfig) *Profile { return align(a, b, cfg, new(pcIndex)) }

// align is Align indexing b into bIdx's arrays, on the first divergence.
func align(a, b []Record, cfg AlignConfig, bIdx *pcIndex) *Profile {
	p := &Profile{}
	indexed := false
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].PC == b[j].PC {
			if a[i].Sig == b[j].Sig {
				p.ExecuteIdentical += 2
			} else {
				p.FetchIdentical += 2
			}
			i++
			j++
			continue
		}
		if !indexed {
			bIdx.build(b)
			indexed = true
		}
		di, dj, ok := reconverge(a, b, i, j, bIdx, cfg)
		if !ok {
			// No reconvergence within the window: the remainders are
			// not identical.
			p.NotIdentical += uint64(len(a) - i + len(b) - j)
			return p
		}
		p.Divergences++
		ta := takenIn(a[i : i+di])
		tb := takenIn(b[j : j+dj])
		diff := ta - tb
		if tb > ta {
			diff = tb - ta
		}
		p.recordDiff(diff)
		p.NotIdentical += uint64(di + dj)
		i += di
		j += dj
	}
	p.NotIdentical += uint64(len(a) - i + len(b) - j)
	return p
}

func takenIn(rs []Record) uint64 {
	var n uint64
	for _, r := range rs {
		if r.Taken {
			n++
		}
	}
	return n
}

// pcIndex lists where each PC occurs in a trace: the positions of the PC
// with id k are pos[start[k]:start[k+1]], in ascending order.
type pcIndex struct {
	id    map[uint64]int
	start []int
	pos   []int
	// ids and next are build's working arrays, kept for the next build.
	ids, next []int
}

// build indexes rs with a counting sort, in linear time and into flat
// arrays rather than one slice per PC. It reuses the arrays of x's last
// build.
func (x *pcIndex) build(rs []Record) {
	if x.id == nil {
		x.id = make(map[uint64]int)
	}
	clear(x.id)
	ids := slices.Grow(x.ids[:0], len(rs))[:len(rs)]
	next := x.next[:0] // per id: its count, then its next free slot in pos
	for k, r := range rs {
		id, ok := x.id[r.PC]
		if !ok {
			id = len(next)
			x.id[r.PC] = id
			next = append(next, 0)
		}
		ids[k] = id
		next[id]++
	}
	x.start = slices.Grow(x.start[:0], len(next)+1)[:len(next)+1]
	x.start[0] = 0
	for id, n := range next {
		x.start[id+1] = x.start[id] + n
		next[id] = x.start[id]
	}
	x.pos = slices.Grow(x.pos[:0], len(rs))[:len(rs)]
	for k, id := range ids {
		x.pos[next[id]] = k
		next[id]++
	}
	x.ids, x.next = ids, next
}

// positions returns pc's positions in ascending order.
func (x *pcIndex) positions(pc uint64) []int {
	id, ok := x.id[pc]
	if !ok {
		return nil
	}
	return x.pos[x.start[id]:x.start[id+1]]
}

// reconverge finds the earliest re-alignment of the divergent suffixes
// a[i:] and b[j:]: the (di, dj) minimizing di+dj, ties to the smaller di,
// such that MinRun consecutive PCs match, with di and dj inside the
// window. bIdx indexes b. Align calls it only where a[i].PC != b[j].PC,
// so (0, 0) is never a candidate.
func reconverge(a, b []Record, i, j int, bIdx *pcIndex, cfg AlignConfig) (int, int, bool) {
	wa := min(cfg.Window, len(a)-i)
	bestDi, bestDj, best := 0, 0, math.MaxInt
	for di := 0; di < wa && di < best; di++ {
		ps := bIdx.positions(a[i+di].PC)
		k, _ := slices.BinarySearch(ps, j)
		for ; k < len(ps); k++ {
			dj := ps[k] - j
			if dj >= cfg.Window || di+dj >= best {
				break
			}
			if runMatches(a[i+di:], b[j+dj:], cfg.MinRun) {
				best, bestDi, bestDj = di+dj, di, dj
				break
			}
		}
	}
	if best == math.MaxInt {
		return 0, 0, false
	}
	return bestDi, bestDj, true
}

func runMatches(a, b []Record, n int) bool {
	if len(a) < n || len(b) < n {
		n = min(len(a), len(b))
		if n == 0 {
			return false
		}
	}
	for k := 0; k < n; k++ {
		if a[k].PC != b[k].PC {
			return false
		}
	}
	return true
}

// profileBuffers is the working storage of one ProfileSystem call: both
// traces and the second one's PC index. ProfileSystem hands it to the next
// call through profileBufs, so profiling a system allocates little beyond
// its Profile.
type profileBuffers struct {
	a, b []Record
	bIdx pcIndex
}

var profileBufs sync.Pool

// ProfileSystem captures and aligns the first two contexts of a freshly
// built system (the paper profiles thread pairs).
func ProfileSystem(sys *prog.System, maxInsts int, cfg AlignConfig) (*Profile, error) {
	if len(sys.Contexts) < 2 {
		return nil, fmt.Errorf("trace: profiling needs at least 2 contexts")
	}
	buf, _ := profileBufs.Get().(*profileBuffers)
	if buf == nil {
		buf = new(profileBuffers)
	}
	defer profileBufs.Put(buf)
	a, err := capture(sys.Contexts[0], maxInsts, buf.a[:0])
	if err != nil {
		return nil, err
	}
	buf.a = a
	// The contexts run one program, so b's length is near a's (within 4%
	// on every kernel); the headroom saves regrowing b to hold the rest.
	// A cap below zero leaves both traces empty.
	b, err := capture(sys.Contexts[1], maxInsts, slices.Grow(buf.b[:0], min(len(a)+len(a)/8, max(maxInsts, 0))))
	if err != nil {
		return nil, err
	}
	buf.b = b
	return align(a, b, cfg, &buf.bIdx), nil
}
