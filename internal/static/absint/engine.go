package absint

import (
	"math"
	"sort"

	"mmt/internal/isa"
	"mmt/internal/prog"
	"mmt/internal/static"
)

// Options configures one abstract interpretation.
type Options struct {
	// Threads is the hardware context count the dependence model assumes
	// (default 2, the paper's configuration).
	Threads int
	// SP is the initial stack pointer. The zero value means the uniform
	// prog.StackTop every non-MT context starts with; MT systems pass the
	// per-thread strided set (see OptionsForApp).
	SP AbsVal
	// Varying lists address ranges whose initial contents differ between
	// contexts (ME/MP input regions). Loads overlapping them produce
	// thread-dependent values.
	Varying []AddrRange
}

// AddrRange is a half-open byte range [Lo, Hi).
type AddrRange struct {
	Lo, Hi uint64
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 2
	}
	return o.Threads
}

func (o Options) sp() AbsVal {
	if o.SP == (AbsVal{}) {
		return Const(int64(prog.StackTop))
	}
	return o.SP
}

// state is the per-block-entry abstract register file.
type state struct {
	ok   bool
	regs [isa.NumRegs]AbsVal
}

func (s *state) get(r uint8) AbsVal {
	if r == isa.RegZero {
		return Const(0)
	}
	return s.regs[r]
}

func (s *state) set(r uint8, v AbsVal) {
	if r != isa.RegZero {
		s.regs[r] = v
	}
}

func joinState(a, b *state) state {
	if !a.ok {
		return *b
	}
	if !b.ok {
		return *a
	}
	out := state{ok: true}
	for i := range out.regs {
		out.regs[i] = join(a.regs[i], b.regs[i])
	}
	return out
}

func widenState(prev, next *state) state {
	out := state{ok: true}
	for i := range out.regs {
		out.regs[i] = widen(prev.regs[i], next.regs[i])
	}
	return out
}

func stateEq(a, b *state) bool {
	if a.ok != b.ok {
		return false
	}
	return a.regs == b.regs
}

// Access is one load or store site with its abstract address set.
type Access struct {
	PC    uint64
	Store bool
	// Addr is the abstract address (base register + displacement).
	Addr AbsVal
	// Unbounded marks an address interval too wide to classify.
	Unbounded bool
	// Classes are the indices into Result.Regions the access can touch,
	// ascending (nil when Unbounded).
	Classes []int
	// Val is the stored value (stores) or the abstract loaded value
	// (loads); its Dep is the access's thread dependence.
	Val AbsVal
}

// BranchFact is the divergence-relevant view of one conditional branch.
type BranchFact struct {
	PC               uint64
	Op               isa.Op
	CanTake, CanFall bool
	// Dep is the condition's thread dependence: DepThread marks a
	// potential divergence site.
	Dep     Dep
	TakenPC uint64
	FallPC  uint64
}

// DivSite is one div/rem instruction with its abstract divisor.
type DivSite struct {
	PC      uint64
	Op      isa.Op
	Divisor AbsVal
}

// LoopBound augments one static.Loop with inferred trip information.
type LoopBound struct {
	HeadPC, BackPC uint64
	// Trip is the inferred iteration count (> 0), or 0 when no bound
	// could be established.
	Trip int64
	// Infinite marks a loop whose body has no path out (neither an exit
	// edge nor a halting terminator).
	Infinite bool
	// ExitPC is the loop-exit branch the bound was read from (when
	// Trip > 0).
	ExitPC uint64
}

// Result is the fixpoint of one abstract interpretation.
type Result struct {
	A    *static.Analysis
	Opts Options
	// Regions partition the address space for alias-class analysis.
	Regions []Region
	// VaryingClass marks regions whose contents may differ across
	// contexts (seeded from Options.Varying, extended by thread-dependent
	// stores to fixpoint).
	VaryingClass []bool
	// Accesses, Branches and Divs are the per-site facts, in PC order.
	Accesses []Access
	Branches []BranchFact
	Divs     []DivSite
	// Loops parallels A.Loops.
	Loops []LoopBound

	in         []state
	anyVarying bool
}

const (
	widenAfter = 4    // joins at one block before widening kicks in
	maxSweeps  = 4096 // hard backstop; the lattice converges far earlier
)

// Run interprets the program underlying a to fixpoint.
func Run(a *static.Analysis, opts Options) *Result {
	r := &Result{A: a, Opts: opts}
	r.buildRegions()
	r.seedVarying()
	// Outer fixpoint over the varying-region set: thread-dependent stores
	// discovered in one pass poison loads in the next. The set only
	// grows, so this terminates within len(Regions) rounds.
	for {
		before := append([]bool(nil), r.VaryingClass...)
		r.fixpoint()
		same := true
		for i := range before {
			if before[i] != r.VaryingClass[i] {
				same = false
				break
			}
		}
		if same {
			break
		}
	}
	r.collectFacts()
	r.inferLoopBounds()
	return r
}

// EntryState returns a copy of the abstract register file at the entry
// of the block containing pc (ok=false when the engine never reached
// it). Exposed for the soundness fuzzer.
func (r *Result) EntryState(pc uint64) ([isa.NumRegs]AbsVal, bool) {
	b := r.A.BlockAt(pc)
	if b < 0 || b >= len(r.in) || !r.in[b].ok || r.A.Blocks[b].Start != pc {
		return [isa.NumRegs]AbsVal{}, false
	}
	return r.in[b].regs, true
}

func (r *Result) initState() state {
	st := state{ok: true}
	for i := range st.regs {
		st.regs[i] = Const(0)
	}
	st.regs[isa.RegSP] = r.Opts.sp()
	return st
}

// topState is the all-unknown state used for callee roots and post-call
// continuations: values and dependences alike are unknown, so DepThread
// keeps the divergence model honest.
func topState() state {
	st := state{ok: true}
	for i := range st.regs {
		st.regs[i] = Top(DepThread)
	}
	st.regs[isa.RegZero] = Const(0)
	return st
}

func (r *Result) fixpoint() {
	a := r.A
	n := len(a.Blocks)
	r.in = make([]state, n)
	visits := make([]int, n)
	dirty := make([]bool, n)
	if a.Entry >= 0 && a.Entry < n {
		r.in[a.Entry] = r.initState()
		dirty[a.Entry] = true
	}
	for _, root := range a.Roots {
		if root != a.Entry {
			r.in[root] = topState()
			dirty[root] = true
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for b := 0; b < n; b++ {
			if !dirty[b] {
				continue
			}
			dirty[b] = false
			changed = true
			st := r.in[b]
			r.execBlock(b, &st, nil)
			r.propagateOut(b, &st, visits, dirty)
		}
		if !changed {
			break
		}
	}
}

// facts collects the per-site observations of the final recording pass.
type facts struct {
	accesses []Access
	branches []BranchFact
	divs     []DivSite
}

// execBlock runs the transfer function over block b's instructions,
// mutating st in place. When f is non-nil the walk records per-site
// facts (the final pass); during fixpoint iteration it only tracks
// varying-region growth.
func (r *Result) execBlock(b int, st *state, f *facts) {
	blk := &r.A.Blocks[b]
	for i := 0; i < blk.N; i++ {
		in := r.A.Prog.Insts[blk.First+i]
		if !in.Op.Valid() {
			return
		}
		pc := blk.Start + uint64(i)*isa.InstBytes
		r.step(st, in, pc, f)
	}
}

// step is the abstract transfer function for one instruction, mirroring
// isa.Exec's semantics (including trap-free div/rem and wrapping
// shifts).
func (r *Result) step(st *state, in isa.Inst, pc uint64, f *facts) {
	a := st.get(in.Rs1)
	b := st.get(in.Rs2)
	imm := Const(in.Imm)
	switch in.Op {
	case isa.OpAdd:
		st.set(in.Rd, addVal(a, b))
	case isa.OpSub:
		st.set(in.Rd, subVal(a, b))
	case isa.OpMul:
		st.set(in.Rd, mulVal(a, b))
	case isa.OpDiv:
		if f != nil {
			f.divs = append(f.divs, DivSite{PC: pc, Op: in.Op, Divisor: b})
		}
		st.set(in.Rd, divVal(a, b))
	case isa.OpRem:
		if f != nil {
			f.divs = append(f.divs, DivSite{PC: pc, Op: in.Op, Divisor: b})
		}
		st.set(in.Rd, remVal(a, b))
	case isa.OpAnd:
		st.set(in.Rd, andVal(a, b))
	case isa.OpOr:
		st.set(in.Rd, orVal(a, b))
	case isa.OpXor:
		st.set(in.Rd, xorVal(a, b))
	case isa.OpSll:
		st.set(in.Rd, sllVal(a, b))
	case isa.OpSrl:
		st.set(in.Rd, srlVal(a, b))
	case isa.OpSra:
		st.set(in.Rd, sraVal(a, b))
	case isa.OpSlt:
		st.set(in.Rd, sltVal(a, b))
	case isa.OpSltu:
		st.set(in.Rd, sltuVal(a, b))

	case isa.OpAddi:
		st.set(in.Rd, addVal(a, imm))
	case isa.OpAndi:
		st.set(in.Rd, andVal(a, imm))
	case isa.OpOri:
		st.set(in.Rd, orVal(a, imm))
	case isa.OpXori:
		st.set(in.Rd, xorVal(a, imm))
	case isa.OpSlli:
		st.set(in.Rd, sllVal(a, imm))
	case isa.OpSrli:
		st.set(in.Rd, srlVal(a, imm))
	case isa.OpSrai:
		st.set(in.Rd, sraVal(a, imm))
	case isa.OpSlti:
		st.set(in.Rd, sltVal(a, imm))
	case isa.OpLui:
		st.set(in.Rd, Const(int64(uint64(in.Imm)<<32)))

	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFmin, isa.OpFmax:
		st.set(in.Rd, Top(maxDep(a.Dep, b.Dep)))
	case isa.OpFsqrt, isa.OpFneg, isa.OpFabs, isa.OpFcvt, isa.OpFcvti:
		st.set(in.Rd, Top(a.Dep))
	case isa.OpFlt, isa.OpFle, isa.OpFeq:
		st.set(in.Rd, boolInterval(maxDep(a.Dep, b.Dep)))

	case isa.OpLd:
		addr := addVal(a, imm)
		classes, unbounded := r.classesOf(addr)
		dep := addr.Dep
		if unbounded {
			if r.anyVarying {
				dep = DepThread
			}
		} else {
			for _, c := range classes {
				if r.VaryingClass[c] {
					dep = DepThread
					break
				}
			}
		}
		val := Top(dep)
		st.set(in.Rd, val)
		if f != nil {
			f.accesses = append(f.accesses, Access{
				PC: pc, Addr: addr, Unbounded: unbounded, Classes: classes, Val: val,
			})
		}
	case isa.OpSt:
		addr := addVal(a, imm)
		classes, unbounded := r.classesOf(addr)
		if addr.Dep == DepThread || b.Dep == DepThread {
			r.markVarying(classes, unbounded)
		}
		if f != nil {
			f.accesses = append(f.accesses, Access{
				PC: pc, Store: true, Addr: addr, Unbounded: unbounded, Classes: classes, Val: b,
			})
		}

	case isa.OpJal, isa.OpJalr:
		st.set(in.Rd, Const(int64(pc+isa.InstBytes)))

	case isa.OpTid:
		t := r.Opts.threads()
		if t > 1 {
			st.set(in.Rd, Range(0, int64(t-1), 1, DepThread))
		} else {
			st.set(in.Rd, Const(0))
		}

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		if f != nil {
			f.branches = append(f.branches, r.branchFact(st, in, pc))
		}
	case isa.OpNop, isa.OpHalt:
		// no register effect
	}
}

// branchFact evaluates the feasibility and dependence of one branch.
func (r *Result) branchFact(st *state, in isa.Inst, pc uint64) BranchFact {
	a := st.get(in.Rs1)
	b := st.get(in.Rs2)
	bf := BranchFact{
		PC: pc, Op: in.Op, Dep: maxDep(a.Dep, b.Dep),
		TakenPC: uint64(in.Imm), FallPC: pc + isa.InstBytes,
	}
	self := in.Rs1 == in.Rs2
	eqPossible := func() bool {
		if self {
			return true
		}
		_, ok1 := a.meetBounds(b.Lo, b.Hi)
		_, ok2 := b.meetBounds(a.Lo, a.Hi)
		return ok1 && ok2
	}
	nePossible := func() bool {
		if self {
			return false
		}
		ca, oka := a.IsConst()
		cb, okb := b.IsConst()
		return !(oka && okb && ca == cb)
	}
	ltPossible := func() bool { return !self && a.Lo < b.Hi }
	gePossible := func() bool { return self || a.Hi >= b.Lo }
	sameSign := (a.Lo >= 0 && b.Lo >= 0) || (a.Hi < 0 && b.Hi < 0)
	switch in.Op {
	case isa.OpBeq:
		bf.CanTake, bf.CanFall = eqPossible(), nePossible()
	case isa.OpBne:
		bf.CanTake, bf.CanFall = nePossible(), eqPossible()
	case isa.OpBlt:
		bf.CanTake, bf.CanFall = ltPossible(), gePossible()
	case isa.OpBge:
		bf.CanTake, bf.CanFall = gePossible(), ltPossible()
	case isa.OpBltu:
		if self {
			bf.CanTake, bf.CanFall = false, true
		} else if sameSign {
			bf.CanTake, bf.CanFall = ltPossible(), gePossible()
		} else {
			bf.CanTake, bf.CanFall = true, true
		}
	case isa.OpBgeu:
		if self {
			bf.CanTake, bf.CanFall = true, false
		} else if sameSign {
			bf.CanTake, bf.CanFall = gePossible(), ltPossible()
		} else {
			bf.CanTake, bf.CanFall = true, true
		}
	}
	return bf
}

// refineBranch returns st narrowed by the branch outcome (taken or
// fall-through). ok=false means the outcome is infeasible under st.
func refineBranch(st *state, in isa.Inst, taken bool) (state, bool) {
	out := *st
	a := st.get(in.Rs1)
	b := st.get(in.Rs2)
	self := in.Rs1 == in.Rs2

	// Normalize to one of four predicates over (a, b).
	type pred uint8
	const (
		pEq pred = iota
		pNe
		pLt // signed a < b
		pGe // signed a >= b
		pNone
	)
	p := pNone
	switch in.Op {
	case isa.OpBeq:
		if taken {
			p = pEq
		} else {
			p = pNe
		}
	case isa.OpBne:
		if taken {
			p = pNe
		} else {
			p = pEq
		}
	case isa.OpBlt, isa.OpBltu:
		if taken {
			p = pLt
		} else {
			p = pGe
		}
	case isa.OpBge, isa.OpBgeu:
		if taken {
			p = pGe
		} else {
			p = pLt
		}
	}
	unsigned := in.Op == isa.OpBltu || in.Op == isa.OpBgeu
	if unsigned && (p == pLt || p == pGe) {
		if self {
			// a < a is false, a >= a is true.
			return out, p == pGe
		}
		// Unsigned order only matches the signed domain when both
		// operands share a sign-bit state; otherwise skip refinement.
		if !((a.Lo >= 0 && b.Lo >= 0) || (a.Hi < 0 && b.Hi < 0)) {
			return out, true
		}
	}

	switch p {
	case pEq:
		if self {
			return out, true
		}
		na, ok1 := a.meetBounds(b.Lo, b.Hi)
		nb, ok2 := b.meetBounds(a.Lo, a.Hi)
		if !ok1 || !ok2 {
			return out, false
		}
		out.set(in.Rs1, na)
		out.set(in.Rs2, nb)
	case pNe:
		if self {
			return out, false
		}
		if ca, ok := a.IsConst(); ok {
			if cb, ok2 := b.IsConst(); ok2 && ca == cb {
				return out, false
			}
		}
		// Trim an endpoint when the other side is a constant.
		if c, ok := b.IsConst(); ok {
			if na, ok2 := trimNe(a, c); ok2 {
				out.set(in.Rs1, na)
			} else {
				return out, false
			}
		}
		if c, ok := a.IsConst(); ok {
			if nb, ok2 := trimNe(b, c); ok2 {
				out.set(in.Rs2, nb)
			} else {
				return out, false
			}
		}
	case pLt:
		if self {
			return out, false
		}
		if b.Hi == math.MinInt64 || a.Lo == math.MaxInt64 {
			return out, false // a < b needs some b above some a
		}
		na, ok1 := a.meetBounds(math.MinInt64, b.Hi-1)
		nb, ok2 := b.meetBounds(a.Lo+1, math.MaxInt64)
		if !ok1 || !ok2 {
			return out, false
		}
		out.set(in.Rs1, na)
		out.set(in.Rs2, nb)
	case pGe:
		if self {
			return out, true
		}
		na, ok1 := a.meetBounds(b.Lo, math.MaxInt64)
		nb, ok2 := b.meetBounds(math.MinInt64, a.Hi)
		if !ok1 || !ok2 {
			return out, false
		}
		out.set(in.Rs1, na)
		out.set(in.Rs2, nb)
	}
	return out, true
}

// trimNe removes constant c from v when it sits on an endpoint.
func trimNe(v AbsVal, c int64) (AbsVal, bool) {
	if lo, hi := v.Lo, v.Hi; lo == hi {
		if lo == c {
			return AbsVal{}, false
		}
		return v, true
	}
	if v.Lo == c && c != math.MaxInt64 {
		return v.meetBounds(c+1, v.Hi)
	}
	if v.Hi == c && c != math.MinInt64 {
		return v.meetBounds(v.Lo, c-1)
	}
	return v, true
}

// propagateOut pushes block b's out-state along its CFG edges.
func (r *Result) propagateOut(b int, st *state, visits []int, dirty []bool) {
	a := r.A
	blk := &a.Blocks[b]
	last := a.Prog.Insts[blk.First+blk.N-1]
	switch blk.Term {
	case static.TermBranch:
		fall := -1
		if b+1 < len(a.Blocks) {
			fall = b + 1
		}
		taken := -1
		if tgt, ok := last.ControlTarget(); ok {
			taken = a.BlockAt(tgt)
		}
		// A branch whose target is its own fall-through has one successor;
		// either refinement result may reach it.
		for _, edge := range []struct {
			to      int
			isTaken bool
		}{{fall, false}, {taken, true}} {
			if edge.to < 0 {
				continue
			}
			if ns, ok := refineBranch(st, last, edge.isTaken); ok {
				r.propagate(edge.to, &ns, visits, dirty)
			}
		}
	case static.TermJump, static.TermFall:
		for _, s := range blk.Succs {
			r.propagate(s, st, visits, dirty)
		}
	case static.TermCall:
		// Intraprocedural: the callee clobbers everything; its own root
		// state is seeded in fixpoint().
		clobbered := topState()
		for _, s := range blk.Succs {
			r.propagate(s, &clobbered, visits, dirty)
		}
	}
}

func (r *Result) propagate(to int, st *state, visits []int, dirty []bool) {
	if !st.ok {
		return
	}
	cur := &r.in[to]
	if !cur.ok {
		r.in[to] = *st
		dirty[to] = true
		return
	}
	joined := joinState(cur, st)
	visits[to]++
	if visits[to] > widenAfter {
		joined = widenState(cur, &joined)
	}
	if !stateEq(cur, &joined) {
		r.in[to] = joined
		dirty[to] = true
	}
}

// collectFacts runs the recording pass over every reached block and
// sorts the site tables into PC order.
func (r *Result) collectFacts() {
	var f facts
	for b := range r.A.Blocks {
		if b >= len(r.in) || !r.in[b].ok {
			continue
		}
		st := r.in[b]
		r.execBlock(b, &st, &f)
	}
	sort.Slice(f.accesses, func(i, j int) bool { return f.accesses[i].PC < f.accesses[j].PC })
	sort.Slice(f.branches, func(i, j int) bool { return f.branches[i].PC < f.branches[j].PC })
	sort.Slice(f.divs, func(i, j int) bool { return f.divs[i].PC < f.divs[j].PC })
	r.Accesses = f.accesses
	r.Branches = f.branches
	r.Divs = f.divs
}

// walkBlock replays block b from its fixpoint entry state, calling
// visit with the state *before* each instruction. Used by the lints.
func (r *Result) walkBlock(b int, visit func(pc uint64, in isa.Inst, st *state)) {
	if b >= len(r.in) || !r.in[b].ok {
		return
	}
	st := r.in[b]
	blk := &r.A.Blocks[b]
	for i := 0; i < blk.N; i++ {
		in := r.A.Prog.Insts[blk.First+i]
		if !in.Op.Valid() {
			return
		}
		pc := blk.Start + uint64(i)*isa.InstBytes
		visit(pc, in, &st)
		r.step(&st, in, pc, nil)
	}
}
