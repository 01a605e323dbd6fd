// Package branch implements the front-end control-flow predictors of the
// simulated core: a two-level adaptive direction predictor (per Table 4 of
// the MMT paper: 1024-entry pattern history table, 10-bit global history),
// a branch target buffer, and a return address stack.
//
// In an SMT/MMT core each hardware thread has its own global history and
// RAS while the PHT and BTB are shared; Unit bundles the shared and
// per-thread pieces.
package branch

import (
	"fmt"

	"mmt/internal/pool"
)

// DirPredictor is a two-level GAs direction predictor: a global branch
// history register per thread indexes a shared table of 2-bit saturating
// counters, xored with the branch PC (gshare flavor).
type DirPredictor struct {
	pht        []uint8 // 2-bit counters
	histBits   uint
	history    []uint64 // per-thread global history
	Lookups    uint64
	Mispredict uint64
}

// NewDirPredictor builds a predictor with entries counters (power of two)
// and histBits bits of global history for nthreads threads.
func NewDirPredictor(entries int, histBits uint, nthreads int) *DirPredictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("branch: PHT entries %d not a power of two", entries))
	}
	p := &DirPredictor{
		pht:      make([]uint8, entries),
		histBits: histBits,
		history:  make([]uint64, nthreads),
	}
	p.reset()
	return p
}

// reset returns the predictor to the state NewDirPredictor built it in.
func (p *DirPredictor) reset() {
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	clear(p.history)
	p.Lookups, p.Mispredict = 0, 0
}

func (p *DirPredictor) index(tid int, pc uint64) int {
	h := p.history[tid] & (1<<p.histBits - 1)
	return int((pc>>2 ^ h) & uint64(len(p.pht)-1))
}

// Predict returns the predicted direction for the branch at pc in thread
// tid, without updating any state.
func (p *DirPredictor) Predict(tid int, pc uint64) bool {
	return p.pht[p.index(tid, pc)] >= 2
}

// Update trains the predictor with the actual outcome and records whether
// the prediction had been correct. It also shifts the outcome into the
// thread's global history.
func (p *DirPredictor) Update(tid int, pc uint64, taken bool) (correct bool) {
	idx := p.index(tid, pc)
	pred := p.pht[idx] >= 2
	correct = pred == taken
	p.Lookups++
	if !correct {
		p.Mispredict++
	}
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	p.history[tid] = p.history[tid]<<1 | b2u(taken)
	return correct
}

// HistoryCopy exposes a thread's current global history for tests.
func (p *DirPredictor) HistoryCopy(tid int) uint64 {
	return p.history[tid] & (1<<p.histBits - 1)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer with tags.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	Hits    uint64
	Misses  uint64
}

// NewBTB builds a BTB with entries slots (power of two).
func NewBTB(entries int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("branch: BTB entries %d not a power of two", entries))
	}
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		valid:   make([]bool, entries),
	}
}

// reset empties the buffer.
func (b *BTB) reset() {
	clear(b.tags)
	clear(b.targets)
	clear(b.valid)
	b.Hits, b.Misses = 0, 0
}

func (b *BTB) index(pc uint64) (int, uint64) {
	idx := int(pc >> 2 & uint64(len(b.tags)-1))
	return idx, pc >> 2 / uint64(len(b.tags))
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	idx, tag := b.index(pc)
	if b.valid[idx] && b.tags[idx] == tag {
		b.Hits++
		return b.targets[idx], true
	}
	b.Misses++
	return 0, false
}

// Insert records the target of a taken control instruction.
func (b *BTB) Insert(pc, target uint64) {
	idx, tag := b.index(pc)
	b.valid[idx] = true
	b.tags[idx] = tag
	b.targets[idx] = target
}

// RAS is a per-thread return address stack with wrap-around overwrite
// semantics (a full stack overwrites the oldest entry, as real hardware
// does).
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a RAS with the given capacity.
func NewRAS(capacity int) *RAS {
	return &RAS{stack: make([]uint64, capacity)}
}

// reset empties the stack.
func (r *RAS) reset() {
	clear(r.stack)
	r.top, r.depth = 0, 0
}

// Push records a return address (on call).
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target (on return). Returns false when empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	v := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return v, true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }

// Unit bundles the shared predictor structures with per-thread RAS state,
// matching the paper's front end (Table 4: 2-level 1024-entry predictor,
// history length 10, 2048-entry BTB, 16-entry RAS).
type Unit struct {
	Dir *DirPredictor
	BTB *BTB
	RAS []*RAS

	cfg Config
}

// Config sizes a Unit.
type Config struct {
	PHTEntries  int
	HistoryBits uint
	BTBEntries  int
	RASEntries  int
	Threads     int
}

// DefaultConfig matches Table 4 of the paper.
func DefaultConfig(threads int) Config {
	return Config{
		PHTEntries:  1024,
		HistoryBits: 10,
		BTBEntries:  2048,
		RASEntries:  16,
		Threads:     threads,
	}
}

// units holds released predictor units by configuration.
var units pool.Keyed[Config, *Unit]

// NewUnit builds the front-end predictors for cfg, reusing a released
// unit of the same configuration when there is one.
func NewUnit(cfg Config) *Unit {
	if u, ok := units.Get(cfg); ok {
		return u
	}
	u := &Unit{
		Dir: NewDirPredictor(cfg.PHTEntries, cfg.HistoryBits, cfg.Threads),
		BTB: NewBTB(cfg.BTBEntries),
		cfg: cfg,
	}
	for i := 0; i < cfg.Threads; i++ {
		u.RAS = append(u.RAS, NewRAS(cfg.RASEntries))
	}
	return u
}

// Release resets u to the state NewUnit builds and hands it to the next
// NewUnit of its configuration. u must not be used afterwards. Releasing
// is optional: an unreleased unit is garbage collected.
func (u *Unit) Release() {
	u.Dir.reset()
	u.BTB.reset()
	for _, r := range u.RAS {
		r.reset()
	}
	units.Put(u.cfg, u)
}
