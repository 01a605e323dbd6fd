package static

import (
	"math/bits"

	"mmt/internal/isa"
)

// Register-initialization dataflow: a forward must-write analysis over
// the reachable CFG. IN[b] is the set of registers written on *every*
// path reaching b; a block's upward-exposed read of a register outside
// that set can observe the loader's implicit zero — legal on this
// machine, but almost always a program bug (SPMD kernels derive all
// state from tid, sp and memory), so it is reported as a warning.
//
// Registers defined before the first instruction: r0 (hard-wired) and sp
// (set by the loader). Call edges propagate the call site's OUT plus the
// linked return address into the callee, so intraprocedural reads of ra
// after a call verify cleanly.

type regMask uint32

const initialRegs = regMask(1<<isa.RegZero | 1<<isa.RegSP)

// instReads returns the source registers i reads; instWrites the
// destination it defines, if any.
func instReads(i isa.Inst) regMask {
	var m regMask
	srcs, n := i.Sources()
	for k := 0; k < n; k++ {
		m |= 1 << srcs[k]
	}
	return m
}

func instWrites(i isa.Inst) regMask {
	if d, ok := i.Dest(); ok {
		return 1 << d
	}
	return 0
}

// checkDataflow reports registers read before any write reaches them on
// some path from the entry.
func (a *Analysis) checkDataflow() {
	n := len(a.Blocks)
	if n == 0 || a.Entry < 0 {
		return
	}
	p := a.Prog

	// Per-block write summaries.
	written := make([]regMask, n)
	for bi := range a.Blocks {
		b := &a.Blocks[bi]
		for k := 0; k < b.N; k++ {
			in := p.Insts[b.First+k]
			if !in.Op.Valid() {
				break
			}
			written[bi] |= instWrites(in)
		}
	}

	// Must-write fixpoint. IN starts full (top) everywhere but the
	// roots; edges are CFG successors plus call edges (the callee sees
	// the call site's OUT plus the link register).
	const top = ^regMask(0)
	in := make([]regMask, n)
	for i := range in {
		in[i] = top
	}
	in[a.Entry] = initialRegs
	for changed := true; changed; {
		changed = false
		for bi := 0; bi < n; bi++ {
			if !a.Reachable[bi] {
				continue
			}
			b := &a.Blocks[bi]
			out := in[bi] | written[bi]
			if in[bi] == top {
				out = written[bi] // not yet reached by a real path
			}
			flow := func(to int, extra regMask) {
				if to < 0 {
					return
				}
				nv := in[to] & (out | extra)
				if in[to] == top {
					nv = out | extra
				}
				if nv != in[to] {
					in[to] = nv
					changed = true
				}
			}
			for _, s := range b.Succs {
				flow(s, 0)
			}
			if b.Callee >= 0 {
				// jal wrote the link register before entry.
				flow(b.Callee, instWrites(p.Insts[b.First+b.N-1]))
			}
		}
	}

	// Report: walk each reachable block, tracking intra-block writes, and
	// flag the first offending read of each register per block.
	for bi := range a.Blocks {
		if !a.Reachable[bi] || in[bi] == top {
			continue
		}
		b := &a.Blocks[bi]
		have := in[bi] | initialRegs
		for k := 0; k < b.N; k++ {
			inst := p.Insts[b.First+k]
			if !inst.Op.Valid() {
				break
			}
			if miss := instReads(inst) &^ have; miss != 0 {
				for miss != 0 {
					r := bits.TrailingZeros32(uint32(miss))
					miss &^= 1 << r
					a.addFinding(SevWarning, CodeReadBeforeWr, a.pcOf(b.First+k),
						"r%d may be read before any write reaches it (%s)", r, inst)
				}
				// One report per register per block: treat it as defined
				// from here on.
				have |= instReads(inst)
			}
			have |= instWrites(inst)
		}
	}
}
