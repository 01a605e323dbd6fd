package absint

import (
	"mmt/internal/isa"
	"mmt/internal/static"
)

// inferLoopBounds derives trip counts for the natural loops the CFG
// analysis found. The inference pattern-matches the dominant kernel
// idiom — an induction register stepped by one addi per iteration,
// compared against a loop-invariant bound at the exit branch — and
// falls back to "unknown" (Trip == 0) for anything fancier. Loops whose
// bodies have no way out at all are flagged Infinite.
func (r *Result) inferLoopBounds() {
	a := r.A
	r.Loops = make([]LoopBound, len(a.Loops))
	for i, l := range a.Loops {
		lb := LoopBound{HeadPC: l.HeadPC, BackPC: l.BackPC}
		if !hasExit(a, l.Body) {
			lb.Infinite = true
		} else {
			lb.Trip, lb.ExitPC = r.inferTrip(a.BlockAt(l.HeadPC), a.BlockAt(l.BackPC), l.Body)
		}
		r.Loops[i] = lb
	}
}

// hasExit reports whether any body block can leave the loop: an edge to
// a block outside the body, or a terminator that exits the program.
func hasExit(a *static.Analysis, body map[int]bool) bool {
	for b := range body {
		blk := &a.Blocks[b]
		switch blk.Term {
		case static.TermRet, static.TermHalt, static.TermIndirect:
			return true
		}
		for _, s := range blk.Succs {
			if !body[s] {
				return true
			}
		}
	}
	return false
}

// inferTrip attempts the induction-variable bound inference. It returns
// (trip, exitBranchPC) on success, (0, 0) otherwise.
func (r *Result) inferTrip(head, back int, body map[int]bool) (int64, uint64) {
	a := r.A
	// The exit branch: prefer the back-edge block's terminator (do-while
	// shape), then the header's (while shape).
	for _, cand := range []int{back, head} {
		blk := &a.Blocks[cand]
		if blk.Term != static.TermBranch {
			continue
		}
		last := a.Prog.Insts[blk.First+blk.N-1]
		tgt, ok := last.ControlTarget()
		if !ok {
			continue
		}
		takenB := a.BlockAt(tgt)
		fallB := -1
		if cand+1 < len(a.Blocks) {
			fallB = cand + 1
		}
		takenIn := takenB >= 0 && body[takenB]
		fallIn := fallB >= 0 && body[fallB]
		if takenIn == fallIn {
			continue // both sides stay in (nested test) or both leave
		}
		if trip, ok := r.tripFromBranch(cand, last, takenIn, head, body); ok {
			return trip, blk.TermPC
		}
	}
	return 0, 0
}

// tripFromBranch solves the iteration count of the continue condition.
// contTaken says whether the taken side continues the loop.
func (r *Result) tripFromBranch(b int, br isa.Inst, contTaken bool, head int, body map[int]bool) (int64, bool) {
	a := r.A
	// State at the branch: replay the block.
	if b >= len(r.in) || !r.in[b].ok {
		return 0, false
	}
	st := r.in[b]
	blk := &a.Blocks[b]
	for i := 0; i < blk.N-1; i++ {
		in := a.Prog.Insts[blk.First+i]
		if !in.Op.Valid() {
			return 0, false
		}
		r.step(&st, in, blk.Start+uint64(i)*isa.InstBytes, nil)
	}

	// Identify the induction register (stepped by exactly one addi in the
	// body) and the invariant bound register (never written in the body).
	indReg, step, ok := inductionOf(a, body, br.Rs1)
	bndReg := br.Rs2
	swapped := false
	if !ok {
		indReg, step, ok = inductionOf(a, body, br.Rs2)
		bndReg = br.Rs1
		swapped = true
	}
	if !ok || writesIn(a, body, bndReg) {
		return 0, false
	}
	bound, isConst := st.get(bndReg).IsConst()
	if !isConst {
		return 0, false
	}

	// Initial induction value: the loop-entry state (header predecessors
	// outside the body).
	init, ok := r.entryConst(head, body, indReg)
	if !ok {
		return 0, false
	}

	// Normalize the continue condition to a predicate ind ? bound.
	// contTaken selects the branch predicate, otherwise its negation;
	// swapped means the induction sits in Rs2.
	type rel uint8
	const (
		rLt rel = iota // ind < bound continues
		rGe            // ind >= bound continues
		rNe            // ind != bound continues
		rBad
	)
	cond := rBad
	switch br.Op {
	case isa.OpBne:
		if contTaken {
			cond = rNe
		}
	case isa.OpBeq:
		if !contTaken {
			cond = rNe
		}
	case isa.OpBlt, isa.OpBltu:
		if br.Op == isa.OpBltu && (init < 0 || bound < 0) {
			break
		}
		if contTaken != swapped {
			cond = rLt // ind < bound (or bound > ind when swapped+fall)
		} else {
			cond = rGe
		}
		if swapped {
			// bound < ind continues (taken) -> ind > bound -> treat as
			// ind >= bound+1; approximate with rGe on adjusted bound.
			if contTaken {
				cond = rGe
				if bound == int64(^uint64(0)>>1) {
					return 0, false
				}
				bound++
			} else {
				// bound >= ind continues -> ind <= bound -> ind < bound+1
				cond = rLt
				if bound == int64(^uint64(0)>>1) {
					return 0, false
				}
				bound++
			}
		}
	case isa.OpBge, isa.OpBgeu:
		if br.Op == isa.OpBgeu && (init < 0 || bound < 0) {
			break
		}
		if contTaken != swapped {
			cond = rGe
		} else {
			cond = rLt
		}
		if swapped {
			if contTaken {
				// bound >= ind continues -> ind <= bound -> ind < bound+1
				cond = rLt
				if bound == int64(^uint64(0)>>1) {
					return 0, false
				}
				bound++
			} else {
				// bound < ind continues -> ind >= bound+1
				cond = rGe
				if bound == int64(^uint64(0)>>1) {
					return 0, false
				}
				bound++
			}
		}
	}
	if cond == rBad {
		return 0, false
	}

	var trip int64
	switch cond {
	case rLt: // runs while ind < bound, ind += step each iteration
		d, ok := subOv(bound, init)
		if step <= 0 || d <= 0 || !ok {
			return 0, false
		}
		trip = (d-1)/step + 1
	case rGe: // runs while ind >= bound, counting down
		d, ok := subOv(init, bound)
		if step >= 0 || step == -step || d < 0 || !ok {
			return 0, false // step == -step guards MinInt64 negation
		}
		trip = d/(-step) + 1
	case rNe: // runs until ind == bound exactly
		d, ok := subOv(bound, init)
		if step == 0 || !ok {
			return 0, false
		}
		if step > 0 && d > 0 && d%step == 0 {
			trip = d / step
		} else if step < 0 && d < 0 && d%step == 0 {
			trip = d / step
		} else {
			return 0, false
		}
	}
	if trip <= 0 {
		return 0, false
	}
	return trip, true
}

// inductionOf checks that reg is written exactly once in the body, by an
// addi reg, reg, step, and returns the step.
func inductionOf(a *static.Analysis, body map[int]bool, reg uint8) (uint8, int64, bool) {
	if reg == isa.RegZero {
		return 0, 0, false
	}
	var step int64
	writes := 0
	for b := range body {
		blk := &a.Blocks[b]
		for i := 0; i < blk.N; i++ {
			in := a.Prog.Insts[blk.First+i]
			if d, ok := in.Dest(); ok && d == reg {
				writes++
				if in.Op != isa.OpAddi || in.Rs1 != reg {
					return 0, 0, false
				}
				step = in.Imm
			}
		}
	}
	if writes != 1 {
		return 0, 0, false
	}
	return reg, step, true
}

// writesIn reports whether any body instruction writes reg.
func writesIn(a *static.Analysis, body map[int]bool, reg uint8) bool {
	for b := range body {
		blk := &a.Blocks[b]
		for i := 0; i < blk.N; i++ {
			if d, ok := a.Prog.Insts[blk.First+i].Dest(); ok && d == reg {
				return true
			}
		}
	}
	return false
}

// entryConst returns the constant value of reg on loop entry: the join
// of the out-states of the header's predecessors outside the body.
func (r *Result) entryConst(head int, body map[int]bool, reg uint8) (int64, bool) {
	a := r.A
	var v AbsVal
	seen := false
	for _, p := range a.Blocks[head].Preds {
		if body[p] || p >= len(r.in) || !r.in[p].ok {
			continue
		}
		st := r.in[p]
		r.execBlock(p, &st, nil)
		if !seen {
			v = st.get(reg)
			seen = true
		} else {
			v = join(v, st.get(reg))
		}
	}
	if !seen {
		return 0, false
	}
	return v.IsConst()
}
