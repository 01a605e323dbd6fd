package core

import (
	"mmt/internal/isa"
	"mmt/internal/prog"
)

// dynRec is one committed-path dynamic instruction of one thread, produced
// by the functional oracle (prog.Context.Step) and consumed by the timing
// model. Records are buffered so that squashes (branch-like rollbacks such
// as LVIP mispredicts) can re-fetch without re-executing, and a uop reads
// its members' effects from here until it commits (Core.eff).
type dynRec struct {
	idx  uint64 // position in the thread's dynamic instruction order
	pc   uint64
	inst isa.Inst
	eff  isa.Effect
}

// stream adapts one context's oracle into a rewindable record stream.
//
// When records are produced. A record is produced — the oracle executes
// its instruction and performs its memory access — by the first peek of
// its index, and only then. Fetch is not the only peeker: Run's drain
// check (allDone → threadDone → nextPC) tops up the first undrained
// thread before every cycle, attemptMerges, fetchOrder/canFetch and
// pruneExhausted peek every live group's leader, and an attached
// recorder's drain classification (anyDrained) peeks every thread. The
// contexts of a multi-threaded system share one memory image, so the
// order of these peeks across threads is the interleaving of their
// shared-memory accesses, and with it the values their loads return.
// Adding, dropping or reordering a peek, or producing records ahead of
// the first peek (say, refilling the ring in batches), can therefore
// move simulated results without breaking any invariant;
// TestOracleInterleavingPinned (internal/sim) pins the order. A stream
// reused from a released storage must restart at index 0 with its
// cursors cleared (start): the ring's old contents are dead, since
// producing a record rewrites its slot whole.
type stream struct {
	ctx *prog.Context
	// recs is a power-of-two ring of the buffered records [base, end):
	// record idx lives at recs[idx&(len(recs)-1)]. A slot is reused only
	// after its record was released, so a pointer peek returned stays
	// valid while its record is buffered.
	recs   []dynRec
	base   uint64 // dynamic index of the oldest buffered record
	end    uint64 // dynamic index one past the newest buffered record
	cursor uint64 // next index fetch will consume
	// maxInsts caps the records produced (0 = unbounded); the thread
	// then behaves as if it halted at the cap.
	maxInsts uint64
	err      error
}

// start points s at ctx's first record, keeping the ring a released
// stream grew: a slot is rewritten whole when its record is produced.
func (s *stream) start(ctx *prog.Context, maxInsts uint64) *stream {
	*s = stream{ctx: ctx, maxInsts: maxInsts, recs: s.recs}
	return s
}

// reset drops the context, so a released stream keeps no system alive.
func (s *stream) reset() { *s = stream{recs: s.recs} }

// peek returns the record at the cursor, producing it from the oracle if
// necessary. ok is false when the thread has halted (no more records) or
// the oracle errored (check s.err).
func (s *stream) peek() (*dynRec, bool) {
	if s.err != nil {
		return nil, false
	}
	if s.maxInsts > 0 && s.cursor >= s.maxInsts {
		return nil, false
	}
	for s.cursor >= s.end {
		if s.ctx.Halted() {
			return nil, false
		}
		if s.end-s.base == uint64(len(s.recs)) {
			s.grow()
		}
		r := s.at(s.end)
		r.idx, r.pc = s.end, s.ctx.State.PC
		inst, err := s.ctx.Step(&r.eff)
		if err != nil {
			s.err = err
			return nil, false
		}
		r.inst = inst
		s.end++
	}
	return s.at(s.cursor), true
}

// at returns the record of dynamic index idx, which must be buffered
// (base <= idx < end).
func (s *stream) at(idx uint64) *dynRec { return &s.recs[idx&uint64(len(s.recs)-1)] }

// grow doubles the ring, moving each buffered record to its new slot.
func (s *stream) grow() {
	n := 2 * len(s.recs)
	if n == 0 {
		n = 256
	}
	recs := make([]dynRec, n)
	for idx := s.base; idx < s.end; idx++ {
		recs[idx&uint64(n-1)] = s.recs[idx&uint64(len(s.recs)-1)]
	}
	s.recs = recs
}

// advance moves the cursor past the current record.
func (s *stream) advance() { s.cursor++ }

// rewindTo moves the cursor back to dynamic index idx (squash/replay).
// idx must not precede already-released records.
func (s *stream) rewindTo(idx uint64) {
	if idx < s.base {
		panic("core: stream rewind below released window")
	}
	if idx > s.cursor {
		panic("core: stream rewind forward")
	}
	s.cursor = idx
}

// release drops buffered records with index < idx (they have committed and
// can never be replayed).
func (s *stream) release(idx uint64) {
	if idx <= s.base {
		return
	}
	if idx > s.cursor {
		panic("core: releasing unfetched records")
	}
	s.base = idx
}

// exhausted reports whether the thread has halted and every record has
// been consumed by fetch.
func (s *stream) exhausted() bool {
	_, ok := s.peek()
	return !ok && s.err == nil
}

// nextPC returns the PC of the record at the cursor (what the thread's
// fetch PC "is" right now); ok=false when halted.
func (s *stream) nextPC() (uint64, bool) {
	r, ok := s.peek()
	if !ok {
		return 0, false
	}
	return r.pc, true
}
