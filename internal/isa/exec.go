package isa

import (
	"fmt"
	"math"
)

// Memory is the interface the functional semantics need from a memory
// image. Addresses are byte addresses; accesses are 64-bit and need not be
// aligned (the simulated workloads always use 8-byte alignment, but the
// semantics do not require it).
type Memory interface {
	Read64(addr uint64) uint64
	Write64(addr uint64, val uint64)
}

// State is the architectural state of one hardware context: the register
// file and the program counter. Reg[0] must read as zero; Exec maintains
// that invariant.
type State struct {
	Reg [NumRegs]uint64
	PC  uint64
	// CtxID is the hardware context id returned by the tid instruction.
	CtxID uint8
	// Halted is set once a halt instruction executes.
	Halted bool
}

// Effect describes the observable consequences of executing one
// instruction, for consumption by the timing model. The words come before
// the flags, so the struct packs into 48 bytes.
type Effect struct {
	// NextPC is the PC of the next dynamic instruction.
	NextPC uint64
	// Addr/StoreVal describe a memory access, if any (see IsMem).
	Addr     uint64
	StoreVal uint64
	// LoadVal is the value a load returned.
	LoadVal uint64
	// DestVal is the value written back, if any (see WroteReg).
	DestVal uint64
	// Taken is set for control instructions that redirected the PC
	// (all jumps, and branches whose condition held).
	Taken   bool
	IsMem   bool
	IsStore bool
	// WroteReg / Dest describe the register writeback, if any.
	WroteReg bool
	Dest     uint8
	// Halted is set by halt.
	Halted bool
}

func f(v uint64) float64  { return math.Float64frombits(v) }
func fb(v float64) uint64 { return math.Float64bits(v) }

// Exec executes i against st and mem, advancing st.PC, and writes the
// architectural effect to *eff, overwriting all of it. It is the
// functional oracle of the simulator: the timing model in internal/core
// never recomputes semantics. On error *eff is unspecified.
func Exec(i Inst, st *State, mem Memory, eff *Effect) error {
	if st.Halted {
		return fmt.Errorf("isa: exec on halted context %d", st.CtxID)
	}
	*eff = Effect{NextPC: st.PC + InstBytes}

	r := &st.Reg
	a, b := r[i.Rs1], r[i.Rs2]
	var dest uint64
	writeDest := false

	switch i.Op {
	case OpAdd:
		dest, writeDest = a+b, true
	case OpSub:
		dest, writeDest = a-b, true
	case OpMul:
		dest, writeDest = a*b, true
	case OpDiv:
		if b == 0 {
			dest = ^uint64(0)
		} else {
			dest = uint64(int64(a) / int64(b))
		}
		writeDest = true
	case OpRem:
		if b == 0 {
			dest = a
		} else {
			dest = uint64(int64(a) % int64(b))
		}
		writeDest = true
	case OpAnd:
		dest, writeDest = a&b, true
	case OpOr:
		dest, writeDest = a|b, true
	case OpXor:
		dest, writeDest = a^b, true
	case OpSll:
		dest, writeDest = a<<(b&63), true
	case OpSrl:
		dest, writeDest = a>>(b&63), true
	case OpSra:
		dest, writeDest = uint64(int64(a)>>(b&63)), true
	case OpSlt:
		dest, writeDest = boolTo(int64(a) < int64(b)), true
	case OpSltu:
		dest, writeDest = boolTo(a < b), true

	case OpAddi:
		dest, writeDest = a+uint64(i.Imm), true
	case OpAndi:
		dest, writeDest = a&uint64(i.Imm), true
	case OpOri:
		dest, writeDest = a|uint64(i.Imm), true
	case OpXori:
		dest, writeDest = a^uint64(i.Imm), true
	case OpSlli:
		dest, writeDest = a<<(uint64(i.Imm)&63), true
	case OpSrli:
		dest, writeDest = a>>(uint64(i.Imm)&63), true
	case OpSrai:
		dest, writeDest = uint64(int64(a)>>(uint64(i.Imm)&63)), true
	case OpSlti:
		dest, writeDest = boolTo(int64(a) < i.Imm), true
	case OpLui:
		dest, writeDest = uint64(i.Imm)<<32, true

	case OpFadd:
		dest, writeDest = fb(f(a)+f(b)), true
	case OpFsub:
		dest, writeDest = fb(f(a)-f(b)), true
	case OpFmul:
		dest, writeDest = fb(f(a)*f(b)), true
	case OpFdiv:
		dest, writeDest = fb(f(a)/f(b)), true
	case OpFsqrt:
		dest, writeDest = fb(math.Sqrt(f(a))), true
	case OpFneg:
		dest, writeDest = fb(-f(a)), true
	case OpFabs:
		dest, writeDest = fb(math.Abs(f(a))), true
	case OpFmin:
		dest, writeDest = fb(math.Min(f(a), f(b))), true
	case OpFmax:
		dest, writeDest = fb(math.Max(f(a), f(b))), true
	case OpFcvt:
		dest, writeDest = fb(float64(int64(a))), true
	case OpFcvti:
		dest, writeDest = uint64(int64(f(a))), true
	case OpFlt:
		dest, writeDest = boolTo(f(a) < f(b)), true
	case OpFle:
		dest, writeDest = boolTo(f(a) <= f(b)), true
	case OpFeq:
		dest, writeDest = boolTo(f(a) == f(b)), true

	case OpLd:
		addr := a + uint64(i.Imm)
		v := mem.Read64(addr)
		eff.IsMem, eff.Addr, eff.LoadVal = true, addr, v
		dest, writeDest = v, true
	case OpSt:
		addr := a + uint64(i.Imm)
		mem.Write64(addr, b)
		eff.IsMem, eff.IsStore, eff.Addr, eff.StoreVal = true, true, addr, b

	case OpBeq:
		eff.Taken = a == b
	case OpBne:
		eff.Taken = a != b
	case OpBlt:
		eff.Taken = int64(a) < int64(b)
	case OpBge:
		eff.Taken = int64(a) >= int64(b)
	case OpBltu:
		eff.Taken = a < b
	case OpBgeu:
		eff.Taken = a >= b

	case OpJal:
		dest, writeDest = st.PC+InstBytes, true
		eff.Taken = true
		eff.NextPC = uint64(i.Imm)
	case OpJalr:
		dest, writeDest = st.PC+InstBytes, true
		eff.Taken = true
		eff.NextPC = a + uint64(i.Imm)

	case OpNop:
		// nothing
	case OpHalt:
		st.Halted = true
		eff.Halted = true
		eff.NextPC = st.PC
	case OpTid:
		dest, writeDest = uint64(st.CtxID), true

	default:
		return fmt.Errorf("isa: exec: invalid opcode %d", uint8(i.Op))
	}

	if i.Op.IsBranch() && eff.Taken {
		eff.NextPC = uint64(i.Imm)
	}

	if writeDest && i.Rd != RegZero {
		r[i.Rd] = dest
		eff.WroteReg, eff.Dest, eff.DestVal = true, i.Rd, dest
	}
	st.PC = eff.NextPC
	return nil
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
