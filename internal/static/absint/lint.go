package absint

import (
	"fmt"
	"math"
	"sort"

	"mmt/internal/isa"
	"mmt/internal/prog"
	"mmt/internal/static"
)

// Lint codes produced by the abstract-interpretation checks, extending
// the static package's structural codes.
const (
	// CodeOOBAccess: a load/store whose abstract address set lies entirely
	// outside the mapped data space [DataBase, StackTop).
	CodeOOBAccess = "oob-access"
	// CodeStoreToText: a store whose abstract address set lies entirely
	// inside the program text.
	CodeStoreToText = "store-to-text"
	// CodeDeadStore: a store definitely overwritten by a later store to
	// the same address with no possible intervening read.
	CodeDeadStore = "dead-store"
	// CodeUnboundedLoop: a natural loop with no exit path (error) or one
	// whose trip count the induction analysis cannot bound (info).
	CodeUnboundedLoop = "unbounded-loop"
	// CodeDivByZero: a div/rem whose abstract divisor is exactly zero
	// (error) or an interval containing zero (info).
	CodeDivByZero = "div-by-zero"
)

// Findings is the one findings list of a program: the CFG analysis's
// structural findings plus the value lints derived from this
// interpretation (out-of-bounds and text-segment accesses,
// statically-dead stores, loops that cannot terminate or cannot be
// bounded, divisions by (possibly) zero), sorted by PC then code.
// mmtcheck reports it and CheckApp gates on it.
func (r *Result) Findings() []static.Finding {
	out := append([]static.Finding{}, r.A.Findings...)
	out = append(out, lintAddresses(r)...)
	out = append(out, lintDeadStores(r)...)
	out = append(out, lintLoops(r)...)
	out = append(out, lintDivZero(r)...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// lintAddresses flags accesses whose entire address interval misses the
// mapped data space: a store that lands wholly inside the program text
// is store-to-text (self-modifying code the simulator's fetch path would
// never observe), any other certain miss is oob-access. Intervals
// touching the space (or too wide to bound) pass: value-set analysis
// over-approximates, so only a certain miss is a finding.
func lintAddresses(r *Result) []static.Finding {
	p := r.A.Prog
	textLo, textHi := p.Base, p.Base+uint64(len(p.Insts))*isa.InstBytes
	var out []static.Finding
	for _, acc := range r.Accesses {
		a := acc.Addr
		if a.Lo == math.MinInt64 || a.Hi == math.MaxInt64 {
			continue // unbounded: not a provable miss
		}
		if acc.Store && a.Lo >= 0 && uint64(a.Lo) >= textLo && uint64(a.Hi) < textHi {
			out = append(out, static.Finding{
				Sev: static.SevError, Code: CodeStoreToText, PC: acc.PC,
				Msg: fmt.Sprintf("store address %s overwrites program text [%#x, %#x)", a, textLo, textHi),
			})
			continue
		}
		oob := false
		switch {
		case a.Hi < 0:
			oob = true // the whole interval is above the address space
		case a.Lo >= 0 && (uint64(a.Hi)+8 <= prog.DataBase || uint64(a.Lo) >= prog.StackTop):
			oob = true
		}
		if !oob {
			continue
		}
		kind := "load"
		if acc.Store {
			kind = "store"
		}
		out = append(out, static.Finding{
			Sev: static.SevError, Code: CodeOOBAccess, PC: acc.PC,
			Msg: fmt.Sprintf("%s address %s is entirely outside the data space [%#x, %#x)",
				kind, a, prog.DataBase, prog.StackTop),
		})
	}
	return out
}

// lintDeadStores finds stores to an exactly-known address that a later
// store in the same block definitely overwrites, with no load in between
// that could observe the value. Block-local on purpose: across blocks a
// path might read the value.
func lintDeadStores(r *Result) []static.Finding {
	accessAt := map[uint64]*Access{}
	for i := range r.Accesses {
		accessAt[r.Accesses[i].PC] = &r.Accesses[i]
	}
	mayAlias := func(x, y *Access) bool {
		if x.Unbounded || y.Unbounded {
			return true
		}
		i, j := 0, 0
		for i < len(x.Classes) && j < len(y.Classes) {
			switch {
			case x.Classes[i] == y.Classes[j]:
				return true
			case x.Classes[i] < y.Classes[j]:
				i++
			default:
				j++
			}
		}
		return false
	}
	var out []static.Finding
	for b := range r.A.Blocks {
		if !r.A.Reachable[b] {
			continue
		}
		// pending maps an exact (8-byte aligned) address to the PC of the
		// last store to it that nothing has read yet.
		pending := map[uint64]uint64{}
		r.walkBlock(b, func(pc uint64, in isa.Inst, st *state) {
			acc := accessAt[pc]
			if acc == nil {
				return
			}
			if !acc.Store {
				// A load kills every pending store it may alias.
				for addr, spc := range pending {
					prev := accessAt[spc]
					if prev == nil || mayAlias(acc, prev) {
						delete(pending, addr)
					}
				}
				return
			}
			if c, ok := acc.Addr.IsConst(); ok && c >= 0 {
				addr := uint64(c) &^ 7
				if spc, dup := pending[addr]; dup {
					out = append(out, static.Finding{
						Sev: static.SevError, Code: CodeDeadStore, PC: spc,
						Msg: fmt.Sprintf("store to %#x is dead: overwritten at %#x before any load", addr, pc),
					})
				}
				pending[addr] = pc
			}
		})
	}
	return out
}

// lintLoops flags loops that provably cannot exit (error) and loops the
// bound inference cannot count (info — most data-dependent loops are
// fine, but the DSE cost model falls back to a default trip for them).
func lintLoops(r *Result) []static.Finding {
	var out []static.Finding
	for _, lb := range r.Loops {
		switch {
		case lb.Infinite:
			out = append(out, static.Finding{
				Sev: static.SevError, Code: CodeUnboundedLoop, PC: lb.HeadPC,
				Msg: fmt.Sprintf("loop with back edge at %#x has no exit path", lb.BackPC),
			})
		case lb.Trip == 0:
			out = append(out, static.Finding{
				Sev: static.SevInfo, Code: CodeUnboundedLoop, PC: lb.HeadPC,
				Msg: fmt.Sprintf("loop with back edge at %#x has no statically inferable bound", lb.BackPC),
			})
		}
	}
	return out
}

// lintDivZero flags div/rem sites by their abstract divisor: exactly
// zero is an error (the quotient is architecturally -1, never what the
// program meant); an interval straddling zero is informational.
func lintDivZero(r *Result) []static.Finding {
	var out []static.Finding
	for _, d := range r.Divs {
		if c, ok := d.Divisor.IsConst(); ok {
			if c == 0 {
				out = append(out, static.Finding{
					Sev: static.SevError, Code: CodeDivByZero, PC: d.PC,
					Msg: fmt.Sprintf("%s divisor is exactly zero", d.Op),
				})
			}
			continue
		}
		if d.Divisor.Contains(0) {
			out = append(out, static.Finding{
				Sev: static.SevInfo, Code: CodeDivByZero, PC: d.PC,
				Msg: fmt.Sprintf("%s divisor %s may be zero", d.Op, d.Divisor),
			})
		}
	}
	return out
}
