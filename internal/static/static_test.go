package static

import (
	"reflect"
	"testing"

	"mmt/internal/asm"
	"mmt/internal/isa"
	"mmt/internal/prog"
)

// mustAnalyze assembles src at the default bases and analyzes it.
func mustAnalyze(t *testing.T, src string) *Analysis {
	t.Helper()
	p, err := asm.Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return Analyze(p)
}

// progOf builds a raw program from hand-written instructions (for
// fixtures the assembler would refuse to emit).
func progOf(insts ...isa.Inst) *prog.Program {
	return &prog.Program{Name: "raw", Entry: prog.CodeBase, Base: prog.CodeBase, Insts: insts}
}

// pcAt returns the address of instruction index i at the default base.
func pcAt(i int) uint64 { return prog.CodeBase + uint64(i)*isa.InstBytes }

func findingCodes(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Code)
	}
	return out
}

func hasCode(fs []Finding, code string) bool {
	for _, f := range fs {
		if f.Code == code {
			return true
		}
	}
	return false
}

// TestDiamond hand-checks the canonical if/else diamond: four blocks,
// entry dominating everything, the join post-dominating everything, and
// the branch's predicted reconvergence at the join.
func TestDiamond(t *testing.T) {
	a := mustAnalyze(t, `
        tid  r4
        bnez r4, odd
        addi r5, r0, 1     ; even arm
        j    join
odd:    addi r5, r0, 2
join:   addi r6, r5, 1
        halt
`)
	// Insts: 0 tid, 1 bnez, 2 addi, 3 j, 4 addi, 5 addi, 6 halt.
	if got := len(a.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4 (%v)", got, a.Blocks)
	}
	wantTerm := []TermKind{TermBranch, TermJump, TermFall, TermHalt}
	for i, w := range wantTerm {
		if a.Blocks[i].Term != w {
			t.Errorf("block %d terminator = %v, want %v", i, a.Blocks[i].Term, w)
		}
	}
	if got := a.Blocks[0].Succs; !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("entry succs = %v, want [1 2]", got)
	}
	if want := []int{-1, 0, 0, 0}; !reflect.DeepEqual(a.IDom, want) {
		t.Errorf("IDom = %v, want %v", a.IDom, want)
	}
	if want := []int{3, 3, 3, -1}; !reflect.DeepEqual(a.IPDom, want) {
		t.Errorf("IPDom = %v, want %v", a.IPDom, want)
	}
	// The bnez at inst 1 must reconverge at the join (inst 5).
	if want := map[uint64]uint64{pcAt(1): pcAt(5)}; !reflect.DeepEqual(a.Reconv, want) {
		t.Errorf("Reconv = %#v, want %#v", a.Reconv, want)
	}
	if len(a.Findings) != 0 {
		t.Errorf("clean diamond produced findings: %v", a.Findings)
	}
	if len(a.Loops) != 0 {
		t.Errorf("diamond has loops: %v", a.Loops)
	}
}

// TestLoop hand-checks a single counted loop: the back edge, the loop
// body, and the branch reconverging at the loop exit.
func TestLoop(t *testing.T) {
	a := mustAnalyze(t, `
        li   r4, 4
loop:   addi r4, r4, -1
        bnez r4, loop
        halt
`)
	// Insts: 0 li, 1 addi, 2 bnez, 3 halt.
	// Blocks: 0 [li], 1 [addi bnez], 2 [halt].
	if got := len(a.Blocks); got != 3 {
		t.Fatalf("blocks = %d, want 3", got)
	}
	if want := []int{-1, 0, 1}; !reflect.DeepEqual(a.IDom, want) {
		t.Errorf("IDom = %v, want %v", a.IDom, want)
	}
	if want := []int{1, 2, -1}; !reflect.DeepEqual(a.IPDom, want) {
		t.Errorf("IPDom = %v, want %v", a.IPDom, want)
	}
	if len(a.Loops) != 1 {
		t.Fatalf("loops = %v, want one", a.Loops)
	}
	l := a.Loops[0]
	if l.HeadPC != pcAt(1) || l.BackPC != pcAt(2) || l.Blocks != 1 || l.Insts != 2 || l.Depth != 1 {
		t.Errorf("loop = %+v", l)
	}
	// The loop branch reconverges past the loop, at the halt.
	if want := map[uint64]uint64{pcAt(2): pcAt(3)}; !reflect.DeepEqual(a.Reconv, want) {
		t.Errorf("Reconv = %#v, want %#v", a.Reconv, want)
	}
}

// TestNestedLoop checks nesting depth and body accounting for a loop
// inside a loop.
func TestNestedLoop(t *testing.T) {
	a := mustAnalyze(t, `
        li   r4, 3
outer:  li   r5, 5
inner:  addi r5, r5, -1
        bnez r5, inner
        addi r4, r4, -1
        bnez r4, outer
        halt
`)
	if len(a.Loops) != 2 {
		t.Fatalf("loops = %v, want two", a.Loops)
	}
	// Sorted by head PC: outer (head at inst 1) before inner (head inst 2).
	outer, inner := a.Loops[0], a.Loops[1]
	if outer.HeadPC != pcAt(1) || outer.Depth != 1 {
		t.Errorf("outer loop = %+v", outer)
	}
	if inner.HeadPC != pcAt(2) || inner.Depth != 2 {
		t.Errorf("inner loop = %+v", inner)
	}
	if inner.Insts >= outer.Insts {
		t.Errorf("inner body (%d insts) not smaller than outer (%d)", inner.Insts, outer.Insts)
	}
}

// TestIndirectBranch: a jalr the analyzer cannot follow becomes an exit
// edge plus an info finding, never an error.
func TestIndirectBranch(t *testing.T) {
	a := mustAnalyze(t, `
        li   r4, target
        jalr r5, 0(r4)
target: halt
`)
	var ind *Block
	for i := range a.Blocks {
		if a.Blocks[i].Term == TermIndirect {
			ind = &a.Blocks[i]
		}
	}
	if ind == nil {
		t.Fatalf("no indirect terminator in %+v", a.Blocks)
	}
	if !hasCode(a.Findings, CodeIndirect) {
		t.Errorf("missing %s finding: %v", CodeIndirect, a.Findings)
	}
	if sev, ok := a.MaxSeverity(); !ok || sev != SevWarning {
		// The halt block is unreachable (the analyzer cannot follow jalr),
		// which warns; nothing should reach error severity.
		t.Errorf("max severity = %v/%v, want warning", sev, ok)
	}
}

// TestCallRet: a call's fall-through is its CFG successor, the callee
// entry is a reachability root, and ret is an exit edge.
func TestCallRet(t *testing.T) {
	a := mustAnalyze(t, `
        call fn
        halt
fn:     addi r4, r0, 7
        ret
`)
	// Blocks: 0 [call], 1 [halt], 2 [addi ret].
	if got := len(a.Blocks); got != 3 {
		t.Fatalf("blocks = %d, want 3", got)
	}
	b0 := a.Blocks[0]
	if b0.Term != TermCall || b0.Callee != 2 || !reflect.DeepEqual(b0.Succs, []int{1}) {
		t.Errorf("call block = %+v", b0)
	}
	if a.Blocks[2].Term != TermRet {
		t.Errorf("callee terminator = %v, want ret", a.Blocks[2].Term)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(a.Roots, want) {
		t.Errorf("roots = %v, want %v", a.Roots, want)
	}
	for i, r := range a.Reachable {
		if !r {
			t.Errorf("block %d unreachable", i)
		}
	}
	if len(a.Findings) != 0 {
		t.Errorf("clean call/ret produced findings: %v", a.Findings)
	}
}

// TestBranchTargetOutOfRange: a branch to an address outside the text
// segment is an error finding.
func TestBranchTargetOutOfRange(t *testing.T) {
	a := Analyze(progOf(
		isa.Inst{Op: isa.OpBeq, Rs1: 4, Rs2: 0, Imm: 0x9_0000},
		isa.Inst{Op: isa.OpHalt},
	))
	if !hasCode(a.Findings, CodeBranchTarget) {
		t.Fatalf("missing %s: %v", CodeBranchTarget, a.Findings)
	}
	if sev, _ := a.MaxSeverity(); sev != SevError {
		t.Errorf("max severity = %v, want error", sev)
	}
}

// TestMisalignedTarget: a target inside the segment but off the 4-byte
// grid is also an error.
func TestMisalignedTarget(t *testing.T) {
	a := Analyze(progOf(
		isa.Inst{Op: isa.OpBeq, Rs1: 4, Rs2: 0, Imm: int64(prog.CodeBase + 2)},
		isa.Inst{Op: isa.OpHalt},
	))
	if !hasCode(a.Findings, CodeBranchTarget) {
		t.Fatalf("missing %s: %v", CodeBranchTarget, a.Findings)
	}
}

// TestUnreachable: a block nothing jumps to warns.
func TestUnreachable(t *testing.T) {
	a := mustAnalyze(t, `
        j    end
        addi r4, r0, 1     ; dead
end:    halt
`)
	if !hasCode(a.Findings, CodeUnreachable) {
		t.Fatalf("missing %s: %v", CodeUnreachable, a.Findings)
	}
	if a.Reachable[1] {
		t.Error("dead block marked reachable")
	}
}

// TestFallsOffEnd: a path running past the last instruction errors.
func TestFallsOffEnd(t *testing.T) {
	a := mustAnalyze(t, `
        addi r4, r0, 1
        addi r5, r4, 1
`)
	if !hasCode(a.Findings, CodeFallsOffEnd) {
		t.Fatalf("missing %s: %v", CodeFallsOffEnd, a.Findings)
	}
}

// TestReadBeforeWrite: a register read on a path no write reaches warns;
// reads of sp/tid-derived and properly initialized registers stay quiet.
func TestReadBeforeWrite(t *testing.T) {
	a := mustAnalyze(t, `
        tid  r4
        bnez r4, skip
        addi r9, r0, 5     ; r9 written only on the fall-through arm
skip:   addi r5, r9, 1     ; read of maybe-uninitialized r9
        halt
`)
	if !hasCode(a.Findings, CodeReadBeforeWr) {
		t.Fatalf("missing %s: %v", CodeReadBeforeWr, a.Findings)
	}
	var f Finding
	for _, x := range a.Findings {
		if x.Code == CodeReadBeforeWr {
			f = x
		}
	}
	if f.PC != pcAt(3) {
		t.Errorf("read-before-write at %#x, want %#x", f.PC, pcAt(3))
	}

	clean := mustAnalyze(t, `
        tid  r4
        addi r5, sp, -8
        addi r6, r4, 1
        halt
`)
	if hasCode(clean.Findings, CodeReadBeforeWr) {
		t.Errorf("false positive on initialized registers: %v", clean.Findings)
	}
}

// TestInvalidOpcode: an undecodable instruction on an executable path
// errors.
func TestInvalidOpcode(t *testing.T) {
	a := Analyze(progOf(
		isa.Inst{Op: isa.Op(200)},
	))
	if !hasCode(a.Findings, CodeInvalidOp) {
		t.Fatalf("missing %s: %v", CodeInvalidOp, a.Findings)
	}
}

// TestBadEntry: an entry PC outside the text segment errors but the
// analysis still proceeds from block 0.
func TestBadEntry(t *testing.T) {
	p := progOf(isa.Inst{Op: isa.OpHalt})
	p.Entry = 0x4
	a := Analyze(p)
	if !hasCode(a.Findings, CodeEntry) {
		t.Fatalf("missing %s: %v", CodeEntry, a.Findings)
	}
	if a.Entry != 0 {
		t.Errorf("fallback entry = %d, want 0", a.Entry)
	}
}

// TestEmptyProgram: no instructions at all.
func TestEmptyProgram(t *testing.T) {
	a := Analyze(progOf())
	if !hasCode(a.Findings, CodeEntry) {
		t.Fatalf("missing %s on empty program: %v", CodeEntry, a.Findings)
	}
}

// TestInfiniteLoop: a program with no path to exit has an empty
// post-dominator tree and no reconvergence entries, without errors from
// the dominator machinery itself.
func TestInfiniteLoop(t *testing.T) {
	a := mustAnalyze(t, `
loop:   addi r4, r4, 1
        j    loop
`)
	for i, pd := range a.IPDom {
		if pd != -1 {
			t.Errorf("IPDom[%d] = %d, want -1 (no exits)", i, pd)
		}
	}
	if len(a.Reconv) != 0 {
		t.Errorf("Reconv = %v, want empty", a.Reconv)
	}
	if len(a.Loops) != 1 {
		t.Errorf("loops = %v, want the infinite loop", a.Loops)
	}
}

// TestPostDominates exercises the instruction-granularity test both
// within and across blocks.
func TestPostDominates(t *testing.T) {
	a := mustAnalyze(t, `
        tid  r4
        bnez r4, odd
        addi r5, r0, 1
        j    join
odd:    addi r5, r0, 2
join:   addi r6, r5, 1
        halt
`)
	cases := []struct {
		pc, q uint64
		want  bool
	}{
		{pcAt(5), pcAt(1), true},  // join pdoms the branch
		{pcAt(6), pcAt(0), true},  // halt pdoms the entry
		{pcAt(2), pcAt(1), false}, // one arm does not pdom the branch
		{pcAt(1), pcAt(0), true},  // later in same block
		{pcAt(0), pcAt(1), false}, // earlier in same block
		{pcAt(5), 0x4, false},     // outside the text
	}
	for _, c := range cases {
		if got := a.PostDominates(c.pc, c.q); got != c.want {
			t.Errorf("PostDominates(%#x, %#x) = %v, want %v", c.pc, c.q, got, c.want)
		}
	}
}

// TestReport sanity-checks the redundancy summary on the diamond.
func TestReport(t *testing.T) {
	a := mustAnalyze(t, `
        tid  r4
        bnez r4, odd
        addi r5, r0, 1
        j    join
odd:    addi r5, r0, 2
join:   addi r6, r5, 1
        halt
`)
	r := a.BuildReport()
	if r.Insts != 7 || r.Blocks != 4 || r.ReachableBlocks != 4 {
		t.Errorf("shape = %d insts / %d blocks / %d reachable", r.Insts, r.Blocks, r.ReachableBlocks)
	}
	if r.Branches != 1 {
		t.Errorf("branches = %d, want 1", r.Branches)
	}
	if len(r.Reconv) != 1 || r.Reconv[0].BranchPC != pcAt(1) || r.Reconv[0].ReconvPC != pcAt(5) {
		t.Errorf("reconv table = %+v", r.Reconv)
	}
	if r.Reconv[0].Span != 4 {
		t.Errorf("span = %d, want 4", r.Reconv[0].Span)
	}
	if r.ShareableInst != r.Insts {
		// Every block is part of some straight-line region; the diamond's
		// regions cover all instructions.
		t.Errorf("shareable = %d, want %d", r.ShareableInst, r.Insts)
	}
}

// TestAnalysisFindingsSorted: findings come out ordered by PC then code,
// whatever order the passes emitted them in.
func TestAnalysisFindingsSorted(t *testing.T) {
	a := Analyze(progOf(
		isa.Inst{Op: isa.OpBeq, Rs1: 4, Rs2: 0, Imm: 0x9_0000},
		isa.Inst{Op: isa.Op(99)},
		isa.Inst{Op: isa.OpHalt},
	))
	for i := 1; i < len(a.Findings); i++ {
		p, q := a.Findings[i-1], a.Findings[i]
		if p.PC > q.PC || (p.PC == q.PC && p.Code > q.Code) {
			t.Fatalf("findings out of order: %v before %v", p, q)
		}
	}
}
