package static

import (
	"sort"

	"mmt/internal/isa"
)

// TermKind classifies how a basic block ends.
type TermKind uint8

const (
	// TermFall: the last instruction is ordinary; control falls into the
	// next block.
	TermFall TermKind = iota
	// TermBranch: conditional branch — fall-through plus taken target.
	TermBranch
	// TermJump: unconditional direct jump (jal discarding the link).
	TermJump
	// TermCall: direct call (jal linking a return address). The analyzer
	// is intraprocedural: the block's CFG successor is the fall-through
	// after the callee returns; the callee entry becomes a root.
	TermCall
	// TermRet: conventional return (jalr through ra); an exit edge.
	TermRet
	// TermIndirect: jalr whose targets the analyzer cannot know; treated
	// as an exit edge and reported as an escape-site finding.
	TermIndirect
	// TermHalt: halt; an exit edge.
	TermHalt
	// TermFallOff: the block would run past the end of the text segment —
	// an abnormal exit, reported as an error finding.
	TermFallOff
	// TermInvalid: the block ends at an undecodable instruction — an
	// abnormal exit, reported as an error finding.
	TermInvalid
)

var termNames = [...]string{
	TermFall: "fall", TermBranch: "branch", TermJump: "jump", TermCall: "call",
	TermRet: "ret", TermIndirect: "indirect", TermHalt: "halt",
	TermFallOff: "falls-off-end", TermInvalid: "invalid",
}

func (t TermKind) String() string {
	if int(t) < len(termNames) {
		return termNames[t]
	}
	return "term(?)"
}

// exits reports whether the terminator leaves the program (normally or
// abnormally) rather than transferring to another block.
func (t TermKind) exits() bool {
	switch t {
	case TermRet, TermIndirect, TermHalt, TermFallOff, TermInvalid:
		return true
	}
	return false
}

// Block is one basic block: a maximal straight-line instruction run with
// one entry (the leader) and one terminator.
type Block struct {
	// Index is the block's position in Analysis.Blocks (address order).
	Index int
	// Start is the leader's PC; End is the PC just past the last
	// instruction ([Start, End) in steps of isa.InstBytes).
	Start, End uint64
	// First and N locate the block's instructions in Prog.Insts.
	First, N int
	// Term classifies the terminator; TermPC is the PC of the last
	// instruction.
	Term   TermKind
	TermPC uint64
	// Succs and Preds are CFG edges as block indices, ascending. Call
	// edges to callee entries are NOT successors (see TermCall); they are
	// recorded in Callee.
	Succs, Preds []int
	// Callee is the callee entry block for TermCall blocks, else -1.
	Callee int
}

// buildCFG decodes the instruction stream into basic blocks and edges,
// recording structural findings (invalid targets, falls-off-end paths,
// indirect escapes) along the way.
func (a *Analysis) buildCFG() {
	p := a.Prog
	n := len(p.Insts)
	if n == 0 {
		a.addFinding(SevError, CodeEntry, p.Entry, "program has an empty text segment")
		return
	}

	// Pass 1: leaders. Instruction 0, the entry, every decodable control
	// instruction's in-range target, and every instruction following a
	// control instruction or an undecodable one.
	leader := make([]bool, n)
	leader[0] = true
	if ei := a.indexOf(p.Entry); ei >= 0 {
		leader[ei] = true
	} else {
		a.addFinding(SevError, CodeEntry, p.Entry,
			"entry PC %#x outside the text segment [%#x,%#x)", p.Entry, p.Base, p.Base+uint64(n)*isa.InstBytes)
	}
	for i, in := range p.Insts {
		if !in.Op.Valid() {
			if i+1 < n {
				leader[i+1] = true
			}
			continue
		}
		if !in.Op.IsControl() {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
		if tgt, ok := in.ControlTarget(); ok {
			if ti := a.indexOf(tgt); ti >= 0 {
				leader[ti] = true
			}
		}
	}

	// Pass 2: blocks in address order.
	for i := 0; i < n; {
		b := Block{Index: len(a.Blocks), Start: a.pcOf(i), First: i, Callee: -1}
		j := i
		for {
			j++
			if j >= n || leader[j] {
				break
			}
		}
		b.N = j - i
		b.End = a.pcOf(j)
		b.TermPC = a.pcOf(j - 1)
		a.Blocks = append(a.Blocks, b)
		i = j
	}

	// Pass 3: terminators and edges.
	for bi := range a.Blocks {
		b := &a.Blocks[bi]
		last := p.Insts[b.First+b.N-1]
		fallTo := func() int {
			if bi+1 < len(a.Blocks) {
				return bi + 1
			}
			return -1
		}
		addSucc := func(t int) {
			b.Succs = append(b.Succs, t)
		}
		target := func() int {
			tgt, ok := last.ControlTarget()
			if !ok {
				return -1
			}
			ti := a.indexOf(tgt)
			if ti < 0 {
				a.addFinding(SevError, CodeBranchTarget, b.TermPC,
					"%s target %#x outside the text segment or misaligned", last.Op, tgt)
				return -1
			}
			return a.BlockAt(a.pcOf(ti))
		}
		switch {
		case !last.Op.Valid():
			b.Term = TermInvalid
			a.addFinding(SevError, CodeInvalidOp, b.TermPC, "undecodable opcode %d on an executable path", uint8(last.Op))
		case last.Op == isa.OpHalt:
			b.Term = TermHalt
		case last.IsReturn():
			b.Term = TermRet
		case last.Op == isa.OpJalr:
			b.Term = TermIndirect
			a.addFinding(SevInfo, CodeIndirect, b.TermPC,
				"indirect jump %s: targets unknown to static analysis", last)
		case last.IsCall():
			b.Term = TermCall
			if t := target(); t >= 0 {
				b.Callee = t
			}
			if ft := fallTo(); ft >= 0 {
				addSucc(ft)
			} else {
				b.Term = TermFallOff
				a.addFinding(SevError, CodeFallsOffEnd, b.TermPC,
					"call return path runs past the end of the text segment")
			}
		case last.Op == isa.OpJal: // plain jump
			b.Term = TermJump
			if t := target(); t >= 0 {
				addSucc(t)
			}
		case last.Op.IsBranch():
			b.Term = TermBranch
			ft := fallTo()
			if ft >= 0 {
				addSucc(ft)
			} else {
				a.addFinding(SevError, CodeFallsOffEnd, b.TermPC,
					"branch fall-through runs past the end of the text segment")
			}
			if t := target(); t >= 0 && t != ft {
				addSucc(t)
			}
		default:
			if ft := fallTo(); ft >= 0 {
				b.Term = TermFall
				addSucc(ft)
			} else {
				b.Term = TermFallOff
				a.addFinding(SevError, CodeFallsOffEnd, b.TermPC,
					"execution runs past the end of the text segment")
			}
		}
		sort.Ints(b.Succs)
	}

	// Pass 4: predecessors.
	for bi := range a.Blocks {
		for _, s := range a.Blocks[bi].Succs {
			a.Blocks[s].Preds = append(a.Blocks[s].Preds, bi)
		}
	}

	if ei := a.indexOf(p.Entry); ei >= 0 {
		a.Entry = a.BlockAt(p.Entry)
	} else if len(a.Blocks) > 0 {
		// Fall back to the first block so the rest of the analysis still
		// produces something useful next to the bad-entry finding.
		a.Entry = 0
	}
}

// computeReachability floods from the entry and from every called
// function entry, following CFG successors plus call edges, and reports
// unreachable blocks.
func (a *Analysis) computeReachability() {
	a.Reachable = make([]bool, len(a.Blocks))
	if a.Entry < 0 || len(a.Blocks) == 0 {
		return
	}
	var stack []int
	visit := func(b int) {
		if b >= 0 && !a.Reachable[b] {
			a.Reachable[b] = true
			stack = append(stack, b)
		}
	}
	isRoot := make([]bool, len(a.Blocks))
	isRoot[a.Entry] = true
	visit(a.Entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range a.Blocks[b].Succs {
			visit(s)
		}
		if c := a.Blocks[b].Callee; c >= 0 {
			isRoot[c] = true
			visit(c)
		}
	}
	for b, r := range isRoot {
		if r {
			a.Roots = append(a.Roots, b)
		}
	}
	for bi := range a.Blocks {
		if !a.Reachable[bi] {
			a.addFinding(SevWarning, CodeUnreachable, a.Blocks[bi].Start,
				"unreachable block (%d instructions)", a.Blocks[bi].N)
		}
	}
}

// canReach reports whether block `to` is reachable from block `from`
// along CFG edges (calls excluded; from reaches itself). Blocks are few
// enough that a per-query BFS beats precomputing the closure.
func (a *Analysis) canReach(from, to int) bool {
	if from < 0 || to < 0 {
		return false
	}
	if from == to {
		return true
	}
	seen := make([]bool, len(a.Blocks))
	seen[from] = true
	stack := []int{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range a.Blocks[b].Succs {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// findLoops detects natural loops via back edges (an edge whose target
// dominates its source) and measures their bodies and nesting.
func (a *Analysis) findLoops() {
	if len(a.Blocks) == 0 || a.IDom == nil {
		return
	}
	dominates := func(v, u int) bool {
		for b := u; b >= 0; b = a.IDom[b] {
			if b == v {
				return true
			}
		}
		return false
	}
	type natLoop struct {
		head, back int
		body       map[int]bool
	}
	var loops []natLoop
	for u := range a.Blocks {
		if !a.Reachable[u] {
			continue
		}
		for _, v := range a.Blocks[u].Succs {
			if !dominates(v, u) {
				continue
			}
			// Natural loop of back edge u->v: v plus all blocks that
			// reach u without passing through v. The header's own
			// predecessors stay outside (v is already in body, so the
			// walk never expands through it; for a self-loop there is
			// nothing to walk at all).
			body := map[int]bool{v: true, u: true}
			var stack []int
			if u != v {
				stack = append(stack, u)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range a.Blocks[x].Preds {
					if !body[p] {
						body[p] = true
						stack = append(stack, p)
					}
				}
			}
			loops = append(loops, natLoop{head: v, back: u, body: body})
		}
	}
	// Nesting depth: loops containing this loop's header (strictly larger
	// bodies that include it).
	for i, l := range loops {
		depth := 1
		for j, o := range loops {
			if i != j && o.body[l.head] && o.body[l.back] && len(o.body) > len(l.body) {
				depth++
			}
		}
		insts := 0
		for b := range l.body {
			insts += a.Blocks[b].N
		}
		a.Loops = append(a.Loops, Loop{
			HeadPC: a.Blocks[l.head].Start,
			BackPC: a.Blocks[l.back].TermPC,
			Blocks: len(l.body),
			Insts:  insts,
			Depth:  depth,
			Body:   l.body,
		})
	}
	sort.Slice(a.Loops, func(i, j int) bool {
		if a.Loops[i].HeadPC != a.Loops[j].HeadPC {
			return a.Loops[i].HeadPC < a.Loops[j].HeadPC
		}
		return a.Loops[i].BackPC < a.Loops[j].BackPC
	})
}
