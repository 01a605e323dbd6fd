// Package core implements the paper's contribution: an out-of-order SMT
// core extended with the Minimal Multi-Threading (MMT) mechanisms —
// ITID-tagged shared fetch, MERGE/DETECT/CATCHUP fetch synchronization
// with per-thread Fetch History Buffers, a Register Sharing Table driven
// split stage that executes execute-identical instructions once for all
// threads, a Load-Value-Identical Predictor for multi-execution loads, and
// commit-time register merging.
//
// Every mechanism can be disabled independently (Config), which yields the
// paper's Base / MMT-F / MMT-FX / MMT-FXR design points (Table 5).
package core

import (
	"math/bits"
	"strings"
)

// MaxThreads is the architectural maximum number of hardware contexts; the
// ITID is a 4-bit mask (paper §4.1).
const MaxThreads = 4

// ITID (Instruction Thread ID) is the bitmask identifying which hardware
// threads an instruction was fetched (and possibly executes) for. The
// member threads are visited in ascending order by bit iteration, which
// never allocates:
//
//	for m := itid; m != 0; m &= m - 1 {
//		t := m.First()
//		...
//	}
type ITID uint8

// ITIDOf returns the singleton ITID for thread t.
func ITIDOf(t int) ITID { return ITID(1) << t }

// Has reports whether thread t is in the mask.
func (m ITID) Has(t int) bool { return m>>t&1 == 1 }

// Count returns the number of threads in the mask.
func (m ITID) Count() int { return bits.OnesCount8(uint8(m)) }

// First returns the lowest-numbered thread in the mask; -1 when empty.
func (m ITID) First() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros8(uint8(m))
}

// With returns m with thread t added; Without with t removed.
func (m ITID) With(t int) ITID    { return m | ITIDOf(t) }
func (m ITID) Without(t int) ITID { return m &^ ITIDOf(t) }

// String renders the mask as the paper writes it, e.g. "0110" for threads
// 1 and 2 (bit position = thread id, leftmost is thread 0).
func (m ITID) String() string {
	var b strings.Builder
	for t := 0; t < MaxThreads; t++ {
		if m.Has(t) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
