package isa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// mapMem is a trivial Memory for tests.
type mapMem map[uint64]uint64

func (m mapMem) Read64(a uint64) uint64     { return m[a] }
func (m mapMem) Write64(a uint64, v uint64) { m[a] = v }

func exec1(t *testing.T, i Inst, st *State, mem Memory) Effect {
	t.Helper()
	if mem == nil {
		mem = mapMem{}
	}
	var eff Effect
	if err := Exec(i, st, mem, &eff); err != nil {
		t.Fatalf("Exec(%v): %v", i, err)
	}
	return eff
}

func TestExecIntALU(t *testing.T) {
	cases := []struct {
		i    Inst
		r4   uint64
		r5   uint64
		want uint64
	}{
		{Inst{Op: OpAdd, Rd: 3, Rs1: 4, Rs2: 5}, 7, 9, 16},
		{Inst{Op: OpSub, Rd: 3, Rs1: 4, Rs2: 5}, 7, 9, ^uint64(1)},
		{Inst{Op: OpMul, Rd: 3, Rs1: 4, Rs2: 5}, 7, 9, 63},
		{Inst{Op: OpDiv, Rd: 3, Rs1: 4, Rs2: 5}, 63, 9, 7},
		{Inst{Op: OpDiv, Rd: 3, Rs1: 4, Rs2: 5}, 63, 0, ^uint64(0)},
		{Inst{Op: OpRem, Rd: 3, Rs1: 4, Rs2: 5}, 65, 9, 2},
		{Inst{Op: OpRem, Rd: 3, Rs1: 4, Rs2: 5}, 65, 0, 65},
		{Inst{Op: OpAnd, Rd: 3, Rs1: 4, Rs2: 5}, 0b1100, 0b1010, 0b1000},
		{Inst{Op: OpOr, Rd: 3, Rs1: 4, Rs2: 5}, 0b1100, 0b1010, 0b1110},
		{Inst{Op: OpXor, Rd: 3, Rs1: 4, Rs2: 5}, 0b1100, 0b1010, 0b0110},
		{Inst{Op: OpSll, Rd: 3, Rs1: 4, Rs2: 5}, 1, 4, 16},
		{Inst{Op: OpSrl, Rd: 3, Rs1: 4, Rs2: 5}, 16, 4, 1},
		{Inst{Op: OpSra, Rd: 3, Rs1: 4, Rs2: 5}, ^uint64(0), 4, ^uint64(0)},
		{Inst{Op: OpSlt, Rd: 3, Rs1: 4, Rs2: 5}, ^uint64(0), 0, 1},
		{Inst{Op: OpSltu, Rd: 3, Rs1: 4, Rs2: 5}, ^uint64(0), 0, 0},
	}
	for _, c := range cases {
		st := &State{}
		st.Reg[4], st.Reg[5] = c.r4, c.r5
		eff := exec1(t, c.i, st, nil)
		if st.Reg[3] != c.want {
			t.Errorf("%v with r4=%d r5=%d: r3 = %d, want %d", c.i, c.r4, c.r5, st.Reg[3], c.want)
		}
		if !eff.WroteReg || eff.Dest != 3 || eff.DestVal != c.want {
			t.Errorf("%v: effect %+v inconsistent", c.i, eff)
		}
		if eff.NextPC != InstBytes {
			t.Errorf("%v: NextPC = %d", c.i, eff.NextPC)
		}
	}
}

func TestExecImmediates(t *testing.T) {
	st := &State{}
	st.Reg[4] = 10
	exec1(t, Inst{Op: OpAddi, Rd: 3, Rs1: 4, Imm: -3}, st, nil)
	if st.Reg[3] != 7 {
		t.Errorf("addi: r3 = %d", st.Reg[3])
	}
	exec1(t, Inst{Op: OpSlli, Rd: 3, Rs1: 4, Imm: 3}, st, nil)
	if st.Reg[3] != 80 {
		t.Errorf("slli: r3 = %d", st.Reg[3])
	}
	exec1(t, Inst{Op: OpLui, Rd: 3, Imm: 2}, st, nil)
	if st.Reg[3] != 2<<32 {
		t.Errorf("lui: r3 = %#x", st.Reg[3])
	}
	exec1(t, Inst{Op: OpSlti, Rd: 3, Rs1: 4, Imm: 11}, st, nil)
	if st.Reg[3] != 1 {
		t.Errorf("slti: r3 = %d", st.Reg[3])
	}
}

func TestExecFloat(t *testing.T) {
	st := &State{}
	st.Reg[4] = fb(2.5)
	st.Reg[5] = fb(1.5)
	exec1(t, Inst{Op: OpFadd, Rd: 3, Rs1: 4, Rs2: 5}, st, nil)
	if f(st.Reg[3]) != 4.0 {
		t.Errorf("fadd = %v", f(st.Reg[3]))
	}
	exec1(t, Inst{Op: OpFmul, Rd: 3, Rs1: 4, Rs2: 5}, st, nil)
	if f(st.Reg[3]) != 3.75 {
		t.Errorf("fmul = %v", f(st.Reg[3]))
	}
	exec1(t, Inst{Op: OpFdiv, Rd: 3, Rs1: 4, Rs2: 5}, st, nil)
	if math.Abs(f(st.Reg[3])-5.0/3.0) > 1e-15 {
		t.Errorf("fdiv = %v", f(st.Reg[3]))
	}
	st.Reg[6] = fb(9.0)
	exec1(t, Inst{Op: OpFsqrt, Rd: 3, Rs1: 6}, st, nil)
	if f(st.Reg[3]) != 3.0 {
		t.Errorf("fsqrt = %v", f(st.Reg[3]))
	}
	exec1(t, Inst{Op: OpFlt, Rd: 3, Rs1: 5, Rs2: 4}, st, nil)
	if st.Reg[3] != 1 {
		t.Errorf("flt = %d", st.Reg[3])
	}
	st.Reg[7] = 42
	exec1(t, Inst{Op: OpFcvt, Rd: 3, Rs1: 7}, st, nil)
	if f(st.Reg[3]) != 42.0 {
		t.Errorf("fcvt = %v", f(st.Reg[3]))
	}
	exec1(t, Inst{Op: OpFcvti, Rd: 8, Rs1: 3}, st, nil)
	if st.Reg[8] != 42 {
		t.Errorf("fcvti = %d", st.Reg[8])
	}
}

func TestExecMemory(t *testing.T) {
	mem := mapMem{}
	st := &State{}
	st.Reg[2] = 0x1000
	st.Reg[5] = 0xdeadbeef
	eff := exec1(t, Inst{Op: OpSt, Rs1: 2, Rs2: 5, Imm: 16}, st, mem)
	if !eff.IsMem || !eff.IsStore || eff.Addr != 0x1010 || eff.StoreVal != 0xdeadbeef {
		t.Errorf("store effect %+v", eff)
	}
	if mem[0x1010] != 0xdeadbeef {
		t.Errorf("store did not hit memory: %#x", mem[0x1010])
	}
	eff = exec1(t, Inst{Op: OpLd, Rd: 6, Rs1: 2, Imm: 16}, st, mem)
	if !eff.IsMem || eff.IsStore || eff.Addr != 0x1010 || eff.LoadVal != 0xdeadbeef {
		t.Errorf("load effect %+v", eff)
	}
	if st.Reg[6] != 0xdeadbeef {
		t.Errorf("load result %#x", st.Reg[6])
	}
}

func TestExecBranches(t *testing.T) {
	cases := []struct {
		op    Op
		a, b  uint64
		taken bool
	}{
		{OpBeq, 5, 5, true},
		{OpBeq, 5, 6, false},
		{OpBne, 5, 6, true},
		{OpBne, 5, 5, false},
		{OpBlt, ^uint64(0), 0, true}, // -1 < 0 signed
		{OpBlt, 0, ^uint64(0), false},
		{OpBge, 0, 0, true},
		{OpBltu, 0, ^uint64(0), true}, // 0 < max unsigned
		{OpBgeu, ^uint64(0), 0, true},
	}
	for _, c := range cases {
		st := &State{PC: 0x100}
		st.Reg[4], st.Reg[5] = c.a, c.b
		i := Inst{Op: c.op, Rs1: 4, Rs2: 5, Imm: 0x200}
		eff := exec1(t, i, st, nil)
		if eff.Taken != c.taken {
			t.Errorf("%v a=%d b=%d: taken = %v, want %v", c.op, c.a, c.b, eff.Taken, c.taken)
		}
		wantPC := uint64(0x104)
		if c.taken {
			wantPC = 0x200
		}
		if st.PC != wantPC {
			t.Errorf("%v: PC = %#x, want %#x", c.op, st.PC, wantPC)
		}
	}
}

func TestExecJumps(t *testing.T) {
	st := &State{PC: 0x100}
	eff := exec1(t, Inst{Op: OpJal, Rd: RegRA, Imm: 0x400}, st, nil)
	if !eff.Taken || st.PC != 0x400 || st.Reg[RegRA] != 0x104 {
		t.Errorf("jal: pc=%#x ra=%#x eff=%+v", st.PC, st.Reg[RegRA], eff)
	}
	st.Reg[7] = 0x800
	eff = exec1(t, Inst{Op: OpJalr, Rd: 0, Rs1: 7, Imm: 8}, st, nil)
	if !eff.Taken || st.PC != 0x808 {
		t.Errorf("jalr: pc=%#x eff=%+v", st.PC, eff)
	}
	if st.Reg[0] != 0 {
		t.Error("jalr wrote r0")
	}
}

func TestExecHaltAndTid(t *testing.T) {
	st := &State{PC: 0x100, CtxID: 3}
	exec1(t, Inst{Op: OpTid, Rd: 9}, st, nil)
	if st.Reg[9] != 3 {
		t.Errorf("tid = %d", st.Reg[9])
	}
	eff := exec1(t, Inst{Op: OpHalt}, st, nil)
	if !eff.Halted || !st.Halted {
		t.Error("halt did not halt")
	}
	if st.PC != 0x104 {
		t.Errorf("halt moved PC to %#x", st.PC)
	}
	if err := Exec(Nop(), st, mapMem{}, new(Effect)); err == nil {
		t.Error("Exec on halted context succeeded")
	}
}

func TestExecRegZeroInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := &State{}
		mem := mapMem{}
		for k := range st.Reg {
			st.Reg[k] = r.Uint64()
		}
		st.Reg[0] = 0
		for n := 0; n < 50; n++ {
			i := randInst(r)
			if i.Op == OpHalt {
				continue
			}
			// Constrain memory addresses so the map stays small.
			if i.Op == OpLd || i.Op == OpSt {
				i.Rs1 = 0
				i.Imm = int64(r.Intn(1024)) * 8
			}
			if err := Exec(i, st, mem, new(Effect)); err != nil {
				return false
			}
			if st.Reg[0] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExecDeterministic checks the oracle property the whole simulator
// relies on: identical starting state and identical instructions produce
// identical effects and states.
func TestExecDeterministic(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() (*State, mapMem) {
			rr := rand.New(rand.NewSource(seed ^ 0x5a5a))
			st := &State{}
			for k := 1; k < NumRegs; k++ {
				st.Reg[k] = rr.Uint64() % 4096
			}
			return st, mapMem{}
		}
		s1, m1 := mk()
		s2, m2 := mk()
		for n := 0; n < 30; n++ {
			i := randInst(r)
			if i.Op == OpHalt {
				continue
			}
			if i.Op == OpLd || i.Op == OpSt {
				i.Imm = int64(r.Intn(128)) * 8
				i.Rs1 = 0
			}
			var e1, e2 Effect
			err1 := Exec(i, s1, m1, &e1)
			err2 := Exec(i, s2, m2, &e2)
			if (err1 == nil) != (err2 == nil) || e1 != e2 {
				return false
			}
			if *s1 != *s2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEffectSize pins the field order that packs an Effect into 48 bytes:
// the timing core buffers one per dynamic instruction in its record ring.
func TestEffectSize(t *testing.T) {
	if n := unsafe.Sizeof(Effect{}); n != 48 {
		t.Errorf("Effect is %d bytes, want 48", n)
	}
}
