package absint

import (
	"encoding/binary"
	"testing"

	"mmt/internal/isa"
	"mmt/internal/prog"
	"mmt/internal/static"
)

// decodeFuzzProgram turns arbitrary bytes into a program: 12 bytes per
// instruction (opcode, three register fields, 8-byte immediate). The cap
// is tighter than the CFG fuzzer's — the interpreter runs every block to
// fixpoint, which is superlinear in pathological back-edge tangles.
func decodeFuzzProgram(data []byte) *prog.Program {
	const perInst = 12
	n := len(data) / perInst
	if n > 256 {
		n = 256
	}
	insts := make([]isa.Inst, n)
	for i := 0; i < n; i++ {
		d := data[i*perInst:]
		insts[i] = isa.Inst{
			Op:  isa.Op(d[0]),
			Rd:  d[1] % isa.NumRegs,
			Rs1: d[2] % isa.NumRegs,
			Rs2: d[3] % isa.NumRegs,
			Imm: int64(binary.LittleEndian.Uint64(d[4:12])),
		}
	}
	return &prog.Program{Name: "fuzz", Entry: prog.CodeBase, Base: prog.CodeBase, Insts: insts}
}

// mapMem is a sparse concrete memory for the oracle interpreter: wild
// fuzzer addresses must not allocate page structures.
type mapMem map[uint64]uint64

func (m mapMem) Read64(addr uint64) uint64 { return m[addr] }
func (m mapMem) Write64(addr, val uint64)  { m[addr] = val }

// concreteRun executes the program with isa.Exec from the entry and
// checks, at every basic-block boundary the engine reached, that each
// concrete register value lies inside the abstract one. The run stops at
// the first halt, invalid opcode, jalr (the engine treats returns and
// indirect jumps as exit edges, so paths beyond them are unmodeled), or
// out-of-text PC.
func concreteRun(t *testing.T, r *Result, ctx uint8, maxSteps int) {
	t.Helper()
	p := r.A.Prog
	st := &isa.State{PC: p.Entry, CtxID: ctx}
	st.Reg[isa.RegSP] = prog.StackTop
	mem := mapMem{}
	for step := 0; step < maxSteps && !st.Halted; step++ {
		if st.PC < p.Base || (st.PC-p.Base)%isa.InstBytes != 0 {
			return
		}
		idx := (st.PC - p.Base) / isa.InstBytes
		if idx >= uint64(len(p.Insts)) {
			return
		}
		if regs, ok := r.EntryState(st.PC); ok {
			for ri := range regs {
				if !regs[ri].Contains(int64(st.Reg[ri])) {
					t.Fatalf("ctx %d pc %#x step %d: r%d = %#x (%d) outside abstract %v",
						ctx, st.PC, step, ri, st.Reg[ri], int64(st.Reg[ri]), regs[ri])
				}
			}
		}
		in := p.Insts[idx]
		if in.Op == isa.OpJalr {
			return
		}
		if err := isa.Exec(in, st, mem, new(isa.Effect)); err != nil {
			return
		}
	}
}

// FuzzRunSound: the interpreter must reach fixpoint without panicking on
// arbitrary instruction streams, and the fixpoint must be sound — a
// concrete execution (per hardware context) never produces a register
// value outside the abstract state at a block entry the engine analyzed.
func FuzzRunSound(f *testing.F) {
	enc := func(insts ...isa.Inst) []byte {
		out := make([]byte, 0, 12*len(insts))
		for _, in := range insts {
			var d [12]byte
			d[0], d[1], d[2], d[3] = byte(in.Op), in.Rd, in.Rs1, in.Rs2
			binary.LittleEndian.PutUint64(d[4:], uint64(in.Imm))
			out = append(out, d[:]...)
		}
		return out
	}
	f.Add([]byte{})
	// tid-dependent branch with a reconvergent diamond.
	f.Add(enc(
		isa.Inst{Op: isa.OpTid, Rd: 4},
		isa.Inst{Op: isa.OpBeq, Rs1: 4, Rs2: 0, Imm: int64(prog.CodeBase + 4*isa.InstBytes)},
		isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 7},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpHalt},
	))
	// Counted loop with an induction variable.
	f.Add(enc(
		isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 0, Imm: 0},
		isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1},
		isa.Inst{Op: isa.OpSlti, Rd: 5, Rs1: 4, Imm: 8},
		isa.Inst{Op: isa.OpBne, Rs1: 5, Rs2: 0, Imm: int64(prog.CodeBase + isa.InstBytes)},
		isa.Inst{Op: isa.OpHalt},
	))
	// Division by a register that may be zero, then by a constant zero.
	f.Add(enc(
		isa.Inst{Op: isa.OpTid, Rd: 4},
		isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 100},
		isa.Inst{Op: isa.OpDiv, Rd: 6, Rs1: 5, Rs2: 4},
		isa.Inst{Op: isa.OpDiv, Rd: 7, Rs1: 5, Rs2: 0},
		isa.Inst{Op: isa.OpHalt},
	))
	// Store then load through the stack pointer.
	f.Add(enc(
		isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 0, Imm: 42},
		isa.Inst{Op: isa.OpSt, Rs1: isa.RegSP, Rs2: 4, Imm: -8},
		isa.Inst{Op: isa.OpLd, Rd: 5, Rs1: isa.RegSP, Imm: -8},
		isa.Inst{Op: isa.OpHalt},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		a := static.Analyze(p)
		r := Run(a, Options{})

		// Site tables come out PC-sorted.
		for i := 1; i < len(r.Accesses); i++ {
			if r.Accesses[i-1].PC > r.Accesses[i].PC {
				t.Fatalf("accesses unsorted at %d", i)
			}
		}
		for i := 1; i < len(r.Branches); i++ {
			if r.Branches[i-1].PC > r.Branches[i].PC {
				t.Fatalf("branches unsorted at %d", i)
			}
		}
		if len(r.Loops) != len(a.Loops) {
			t.Fatalf("Loops = %d entries, want %d (parallel to A.Loops)", len(r.Loops), len(a.Loops))
		}
		// The cost model and the lints must also survive any fixpoint.
		e := EstimateOf(r)
		if e.Redundancy < 0 || e.Redundancy > 1 || e.LVIPPotential < 0 || e.LVIPPotential > 1 {
			t.Fatalf("estimate out of range: %+v", e)
		}
		r.Findings()

		// Soundness against the functional oracle, one run per context.
		for ctx := uint8(0); ctx < 2; ctx++ {
			concreteRun(t, r, ctx, 1500)
		}
	})
}
