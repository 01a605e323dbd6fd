package workloads

import (
	"mmt/internal/prog"
)

// Message-passing workloads — the paper's third SPMD class (§3.1), listed
// as future work in §7 ("we have not evaluated another application class
// that would benefit greatly from our MMT hardware: message-passing
// applications"). Ranks run in private address spaces and exchange data
// through the shared mailbox window (prog.MboxBase); flag-based channels
// follow a single-writer discipline, so any interleaving is race-free.
//
// These are extension workloads: they are excluded from the sixteen-app
// paper registry (workloads.All) and surfaced through workloads.MP.
//
// Each kernel's Ranks lists the thread counts its protocol completes at:
// pingpong-mp and jacobi-mp use pairwise (XOR-partner) channels and need
// an even rank count; allreduce-mp gathers from four fixed slots and
// needs exactly four ranks.

func init() {
	register(App{
		Name:  "pingpong-mp",
		Suite: "MP",
		Mode:  prog.ModeMP,
		Ranks: []int{2, 4},
		About: "pairwise message exchange through mailbox channels: SPMD send/spin/receive rounds with rank-dependent addresses",
		Source: `
; pingpong-mp: ROUNDS exchanges with the XOR partner. Each rank composes a
; payload, publishes it (payload then flag, single-writer), spins on the
; partner's flag, and consumes the partner's payload.
        .equ  MBOX, 0x400000
        .equ  ROUNDS, 140
        tid   r4
        xori  r5, r4, 1          ; partner rank
        slli  r6, r4, 7
        li    r7, MBOX
        add   r6, r6, r7         ; my channel
        slli  r8, r5, 7
        add   r8, r8, r7         ; partner channel
        li    r20, ROUNDS
        li    r21, 0             ; round number
        li    r22, 0             ; payload sum
        li    r23, 0             ; round sum
        mul   r9, r4, r4         ; rank-specific payload (round-invariant,
        addi  r9, r9, 5          ; so reads are skew-tolerant)
round:  addi  r21, r21, 1
        st    r9, 8(r6)          ; payload
        st    r21, 0(r6)         ; flag = round (release)
; spin until the partner reached at least this round; >= matching keeps
; the handshake wedge-free when one rank races ahead inside the other's
; pipeline stall (skew is bounded at one round by the protocol).
wait:   ld    r12, 0(r8)
        bltu  r12, r21, wait
        ld    r13, 8(r8)         ; partner payload
        add   r22, r22, r13
        add   r23, r23, r21
        addi  r20, r20, -1
        bnez  r20, round
        halt
`,
	})

	register(App{
		Name:  "jacobi-mp",
		Suite: "MP",
		Mode:  prog.ModeMP,
		Ranks: []int{2, 4},
		About: "BSP stencil: per-iteration boundary exchange with the partner rank, then a private grid sweep — mostly fetch/execute-identical compute with brief exchange divergence",
		Source: `
; jacobi-mp: ITERS bulk-synchronous iterations. Publish the local boundary
; cell, spin for the partner's, then sweep the private grid.
        .equ  MBOX, 0x400000
        .equ  ITERS, 30
        .equ  CELLS, 48
        tid   r4
        xori  r5, r4, 1
        slli  r6, r4, 7
        li    r7, MBOX+0x1000
        add   r6, r6, r7         ; my boundary slot
        slli  r8, r5, 7
        add   r8, r8, r7         ; partner boundary slot
        li    r9, grid
        li    r20, ITERS
        li    r21, 0
        li    r22, 0
        fcvt  r22, r22           ; boundary fold accumulator
iter:   addi  r21, r21, 1
        ld    r10, 0(r9)         ; my boundary value
        st    r10, 8(r6)
        st    r21, 0(r6)         ; publish
jwait:  ld    r11, 0(r8)
        bltu  r11, r21, jwait    ; >= matching (see pingpong-mp)
        ld    r12, 8(r8)         ; partner boundary
; private stencil sweep
        li    r13, 0
        mv    r14, r9
cell:   ld    r15, 0(r14)
        ld    r16, 8(r14)
        fadd  r17, r15, r16
        fmul  r18, r17, r15
        st    r18, 0(r14)
        addi  r14, r14, 8
        addi  r13, r13, 1
        slti  r19, r13, CELLS
        bnez  r19, cell
        fadd  r22, r22, r12      ; fold in the received boundary
        addi  r20, r20, -1
        bnez  r20, iter
        halt
        .data
grid:   .space CELLS*8+8
`,
		Init: func(p *prog.Program, ctx int, mem *prog.Memory, identical bool) {
			seed := uint64(0x3AC0)
			if !identical {
				seed += uint64(ctx)
			}
			fillDoubles(mem, sym(p, "grid"), 49, seed)
		},
	})

	register(App{
		Name:  "allreduce-mp",
		Suite: "MP",
		Mode:  prog.ModeMP,
		Ranks: []int{4},
		About: "four-rank all-reduce through fixed mailbox slots: the gather loop's loads are shared-window merged loads (verified, not LVIP-predicted)",
		Source: `
; allreduce-mp: every iteration each rank publishes a partial into its own
; slot, then gathers all four slots. Gather addresses are rank-independent,
; so merged groups perform shared-window merged loads. The flag check
; accepts flags ahead of the local round (skew is at most one iteration),
; which keeps the protocol deadlock-free under any interleaving.
        .equ  MBOX, 0x400000
        .equ  ITERS, 50
        tid   r4
        slli  r6, r4, 4
        li    r7, MBOX+0x2000
        add   r6, r6, r7         ; my slot
        li    r20, ITERS
        li    r21, 0
        li    r23, 0             ; all-reduce checksum
iter:   addi  r21, r21, 1
        mul   r10, r21, r4       ; partial value
        addi  r10, r10, 3
        st    r10, 8(r6)
        st    r21, 0(r6)         ; publish
; gather from the four fixed slots
        li    r11, 0
        li    r22, 0
gather: slli  r12, r11, 4
        add   r12, r12, r7
gwait:  ld    r13, 0(r12)
        bltu  r13, r21, gwait    ; wait until that rank reached this round
        ld    r14, 8(r12)
        add   r22, r22, r14
        addi  r11, r11, 1
        slti  r15, r11, 4
        bnez  r15, gather
        add   r23, r23, r22
        addi  r20, r20, -1
        bnez  r20, iter
        halt
`,
	})
}

// MP returns the message-passing extension workloads.
func MP() []App {
	var out []App
	for _, a := range registry {
		if a.Suite == "MP" {
			out = append(out, a)
		}
	}
	return out
}
