package prog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mmt/internal/isa"
)

func testProgram() *Program {
	// li r5, 3; loop: addi r5, r5, -1; bnez; halt
	insts := []isa.Inst{
		{Op: isa.OpAddi, Rd: 5, Rs1: 0, Imm: 3},
		{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: -1},
		{Op: isa.OpBne, Rs1: 5, Rs2: 0, Imm: CodeBase + 1*isa.InstBytes},
		{Op: isa.OpHalt},
	}
	return &Program{
		Name: "test", Base: CodeBase, Entry: CodeBase,
		Insts: insts, Data: NewMemory(),
		Symbols: map[string]uint64{"loop": CodeBase + 4},
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read64(0x5000) != 0 {
		t.Error("unwritten memory not zero")
	}
	m.Write64(0x5000, 42)
	if m.Read64(0x5000) != 42 {
		t.Error("write lost")
	}
	// Unaligned addresses truncate to the containing word.
	if m.Read64(0x5003) != 42 {
		t.Error("unaligned read did not truncate")
	}
	m.Write64(0x5008, 7)
	if m.Read64(0x5000) != 42 || m.Read64(0x5008) != 7 {
		t.Error("adjacent words interfere")
	}
}

func TestMemoryZeroValueUsable(t *testing.T) {
	var m Memory
	if m.Read64(16) != 0 {
		t.Error("zero-value read")
	}
	m.Write64(16, 5)
	if m.Read64(16) != 5 {
		t.Error("zero-value write")
	}
}

func TestMemoryCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 1)
	c := m.Clone()
	c.Write64(0x1000, 2)
	c.Write64(0x99000, 3)
	if m.Read64(0x1000) != 1 {
		t.Error("clone aliased original page")
	}
	if m.Read64(0x99000) != 0 {
		t.Error("clone write leaked to original")
	}
	if c.Read64(0x1000) != 2 {
		t.Error("clone lost its write")
	}
}

func TestMemorySparseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		ref := map[uint64]uint64{}
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(1<<20)) &^ 7
			if r.Intn(2) == 0 {
				v := r.Uint64()
				m.Write64(addr, v)
				ref[addr] = v
			} else if m.Read64(addr) != ref[addr] {
				return false
			}
		}
		for a, v := range ref {
			if m.Read64(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := NewMemory()
	if m.Footprint() != 0 {
		t.Error("empty footprint nonzero")
	}
	m.Write64(0, 1)
	m.Write64(100, 1) // same page
	if m.Footprint() != pageBytes {
		t.Errorf("footprint = %d", m.Footprint())
	}
	m.Write64(pageBytes, 1)
	if m.Footprint() != 2*pageBytes {
		t.Errorf("footprint = %d", m.Footprint())
	}
}

func TestInstAt(t *testing.T) {
	p := testProgram()
	if _, ok := p.InstAt(CodeBase - 4); ok {
		t.Error("InstAt before base succeeded")
	}
	if _, ok := p.InstAt(CodeBase + uint64(len(p.Insts))*isa.InstBytes); ok {
		t.Error("InstAt past end succeeded")
	}
	if _, ok := p.InstAt(CodeBase + 2); ok {
		t.Error("InstAt misaligned succeeded")
	}
	in, ok := p.InstAt(CodeBase + 4)
	if !ok || in.Op != isa.OpAddi || in.Imm != -1 {
		t.Errorf("InstAt = %v/%v", in, ok)
	}
}

func TestNewSystemMT(t *testing.T) {
	sys, err := NewSystem(testProgram(), ModeMT, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := sys.Contexts[0], sys.Contexts[1]
	if c0.Mem != c1.Mem {
		t.Error("MT contexts do not share memory")
	}
	if c0.State.Reg[isa.RegSP] == c1.State.Reg[isa.RegSP] {
		t.Error("MT stack pointers identical")
	}
	// All other registers identical.
	for r := 0; r < isa.NumRegs; r++ {
		if r == isa.RegSP {
			continue
		}
		if c0.State.Reg[r] != c1.State.Reg[r] {
			t.Errorf("MT reg %d differs at start", r)
		}
	}
	// Shared memory is visible across contexts.
	c0.Mem.Write64(0x4000, 9)
	if c1.Mem.Read64(0x4000) != 9 {
		t.Error("MT store not visible to sibling")
	}
}

func TestNewSystemME(t *testing.T) {
	init := func(ctx int, mem *Memory) {
		mem.Write64(DataBase, uint64(100+ctx))
	}
	sys, err := NewSystem(testProgram(), ModeME, 3, init)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.Contexts {
		if got := c.Mem.Read64(DataBase); got != uint64(100+i) {
			t.Errorf("ctx %d input = %d", i, got)
		}
	}
	// ME: all registers identical, including SP (§3.1).
	if sys.Contexts[0].State != func() isa.State {
		s := sys.Contexts[1].State
		s.CtxID = 0
		return s
	}() {
		t.Error("ME register state differs beyond CtxID")
	}
	// Memory is private.
	sys.Contexts[0].Mem.Write64(0x4000, 9)
	if sys.Contexts[1].Mem.Read64(0x4000) != 0 {
		t.Error("ME store leaked to sibling")
	}
}

func TestNewSystemBounds(t *testing.T) {
	if _, err := NewSystem(testProgram(), ModeMT, 0, nil); err == nil {
		t.Error("0 contexts accepted")
	}
	if _, err := NewSystem(testProgram(), ModeMT, 5, nil); err == nil {
		t.Error("5 contexts accepted")
	}
}

func TestRunFunctional(t *testing.T) {
	sys, _ := NewSystem(testProgram(), ModeME, 2, nil)
	if err := sys.RunFunctional(100); err != nil {
		t.Fatal(err)
	}
	if !sys.AllHalted() {
		t.Error("not all halted")
	}
	for _, c := range sys.Contexts {
		if c.State.Reg[5] != 0 {
			t.Errorf("ctx %d: r5 = %d", c.ID, c.State.Reg[5])
		}
		// 1 li + 3*(addi+bne) + halt = 8
		if c.DynCount != 8 {
			t.Errorf("ctx %d: dyn = %d", c.ID, c.DynCount)
		}
	}
}

func TestRunFunctionalInstLimit(t *testing.T) {
	p := &Program{
		Name: "spin", Base: CodeBase, Entry: CodeBase,
		Insts: []isa.Inst{{Op: isa.OpJal, Rd: 0, Imm: CodeBase}},
		Data:  NewMemory(),
	}
	sys, _ := NewSystem(p, ModeME, 1, nil)
	if err := sys.RunFunctional(50); err == nil {
		t.Error("infinite loop not caught")
	}
}

func TestStepOutsideText(t *testing.T) {
	sys, _ := NewSystem(testProgram(), ModeME, 1, nil)
	sys.Contexts[0].State.PC = 0x10
	if _, err := sys.Contexts[0].Step(new(isa.Effect)); err == nil {
		t.Error("step outside text succeeded")
	}
}

func TestModeString(t *testing.T) {
	if ModeMT.String() != "MT" || ModeME.String() != "ME" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestSortedSymbols(t *testing.T) {
	p := testProgram()
	p.Symbols["a"] = 100
	p.Symbols["b"] = 50
	got := p.SortedSymbols()
	if len(got) != 3 || got[0] != "b" {
		t.Errorf("sorted = %v", got)
	}
}

func TestNewMultiSystem(t *testing.T) {
	pa := testProgram()
	// A second program with a distinct base.
	pb := &Program{
		Name: "b", Base: 0x80000, Entry: 0x80000,
		Insts: []isa.Inst{
			{Op: isa.OpAddi, Rd: 6, Rs1: 0, Imm: 9},
			{Op: isa.OpHalt},
		},
		Data: NewMemory(),
	}
	sys, err := NewMultiSystem([]*Program{pa, pb}, func(ctx int, mem *Memory) {
		mem.Write64(DataBase, uint64(ctx+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Contexts[0].Prog != pa || sys.Contexts[1].Prog != pb {
		t.Error("program assignment wrong")
	}
	if err := sys.RunFunctional(100); err != nil {
		t.Fatal(err)
	}
	if sys.Contexts[0].State.Reg[5] != 0 {
		t.Errorf("ctx0 r5 = %d", sys.Contexts[0].State.Reg[5])
	}
	if sys.Contexts[1].State.Reg[6] != 9 {
		t.Errorf("ctx1 r6 = %d", sys.Contexts[1].State.Reg[6])
	}
	// Private inputs stayed private.
	if sys.Contexts[0].Mem.Read64(DataBase) != 1 || sys.Contexts[1].Mem.Read64(DataBase) != 2 {
		t.Error("per-context inputs wrong")
	}
	if _, err := NewMultiSystem(nil, nil); err == nil {
		t.Error("empty program list accepted")
	}
}

func TestNewMPSystemSharedWindow(t *testing.T) {
	p := testProgram()
	sys, err := NewMPSystem(p, 2, func(ctx int, mem *Memory) {
		mem.Write64(DataBase, uint64(ctx))
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := sys.Contexts[0], sys.Contexts[1]
	// Private memory is private.
	if c0.Mem.Read64(DataBase) != 0 || c1.Mem.Read64(DataBase) != 1 {
		t.Error("private inputs wrong")
	}
	c0.Mem.Write64(DataBase+64, 7)
	if c1.Mem.Read64(DataBase+64) != 0 {
		t.Error("private store leaked")
	}
	// The mailbox window is shared.
	c0.Mem.Write64(MboxBase+16, 42)
	if c1.Mem.Read64(MboxBase+16) != 42 {
		t.Error("mailbox store not shared")
	}
	if !InMbox(MboxBase) || !InMbox(MboxBase+MboxSize-8) || InMbox(MboxBase+MboxSize) || InMbox(0) {
		t.Error("InMbox bounds wrong")
	}
	if sys.Mode != ModeMP || ModeMP.String() != "MP" {
		t.Error("mode metadata")
	}
	if _, err := NewMPSystem(p, 9, nil); err == nil {
		t.Error("9 ranks accepted")
	}
}
