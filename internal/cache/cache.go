// Package cache implements the memory hierarchy of the simulated core:
// set-associative write-back caches with LRU replacement, miss status
// holding registers (MSHRs), and a three-level hierarchy (L1I, L1D, shared
// L2, DRAM) with the latencies of Table 4 of the MMT paper.
//
// The hierarchy is a timing model only — data values live in the
// functional memory images (internal/prog). Addresses are tagged with an
// address-space id so that multi-execution workloads (separate processes)
// do not alias in the data caches, while instruction fetches of the shared
// binary use one space.
package cache

import "fmt"

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

func (c Config) sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks that the geometry is consistent and power-of-two sized.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line", c.SizeBytes)
	}
	s := c.sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is one set-associative, write-back, write-allocate cache with LRU
// replacement. It is a tag store only.
type Cache struct {
	cfg Config
	// lines holds every set's ways in one array: set i is
	// lines[i*ways : (i+1)*ways].
	lines []line
	nsets int
	// filled lists the sets that hold a valid line, so reset clears
	// only those: a short run fills few of the L2's 8,192 sets.
	filled   []int32
	lruClock uint64
	Stats    Stats
}

// New builds a cache; it panics on invalid geometry (configurations are
// program constants).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg, lines: make([]line, cfg.sets()*cfg.Ways), nsets: cfg.sets()}
}

// reset returns the cache to the state New built it in.
func (c *Cache) reset() {
	for _, s := range c.filled {
		clear(c.set(int(s)))
	}
	c.filled = c.filled[:0]
	c.lruClock = 0
	c.Stats = Stats{}
}

// set returns the ways of set i.
func (c *Cache) set(i int) []line {
	w := c.cfg.Ways
	return c.lines[i*w : (i+1)*w]
}

// lineAddr reduces an address to its line-aligned form.
func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *Cache) locate(addr uint64) (setIdx int, tag uint64) {
	la := addr / uint64(c.cfg.LineBytes)
	setIdx = int(la & uint64(c.nsets-1))
	tag = la / uint64(c.nsets)
	return
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; the hierarchy
	// charges an extra access to the next level.
	Writeback bool
}

// Access performs a read (write=false) or write (write=true) of addr,
// allocating on miss and evicting LRU.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.locate(addr)
	c.lruClock++
	lines := c.set(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = c.lruClock
			if write {
				lines[i].dirty = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++
	// Choose victim: invalid first, else LRU.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if victim == 0 && !lines[0].valid {
		// Lines are never invalidated and a fill takes the first
		// invalid way, so an invalid way 0 means the set was empty.
		c.filled = append(c.filled, int32(set))
	}
	if lines[victim].valid {
		c.Stats.Evictions++
		if lines[victim].dirty {
			c.Stats.Writebacks++
			res.Writeback = true
		}
	}
	lines[victim] = line{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	return res
}

// Probe reports whether addr is resident without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.locate(addr)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// MSHR models a file of miss status holding registers: a bounded set of
// outstanding misses. Misses to a line already outstanding merge; when all
// registers are busy the new miss is delayed until one frees.
type MSHR struct {
	ready []uint64 // per-register completion cycle
	addr  []uint64 // line address of the outstanding miss
	// Merges counts secondary misses that coalesced onto an existing
	// register; Stalls counts misses delayed by a full file.
	Merges uint64
	Stalls uint64
}

// NewMSHR builds a file with n registers.
func NewMSHR(n int) *MSHR {
	return &MSHR{ready: make([]uint64, n), addr: make([]uint64, n)}
}

// reset frees every register and zeroes the counters.
func (m *MSHR) reset() {
	clear(m.ready)
	clear(m.addr)
	m.Merges, m.Stalls = 0, 0
}

// Size returns the number of registers.
func (m *MSHR) Size() int { return len(m.ready) }

// Allocate requests service of a miss to lineAddr issued at cycle now with
// the given service latency, returning the cycle at which the fill
// completes.
func (m *MSHR) Allocate(lineAddr, now, latency uint64) (done uint64) {
	// Merge with an outstanding miss to the same line.
	for i := range m.ready {
		if m.ready[i] > now && m.addr[i] == lineAddr {
			m.Merges++
			return m.ready[i]
		}
	}
	// Find a free register (earliest-ready as fallback).
	best := 0
	for i := range m.ready {
		if m.ready[i] <= now {
			m.ready[i] = now + latency
			m.addr[i] = lineAddr
			return m.ready[i]
		}
		if m.ready[i] < m.ready[best] {
			best = i
		}
	}
	// All busy: wait for the earliest to free, then occupy it.
	m.Stalls++
	start := m.ready[best]
	m.ready[best] = start + latency
	m.addr[best] = lineAddr
	return m.ready[best]
}

// Outstanding reports how many registers are busy at cycle now.
func (m *MSHR) Outstanding(now uint64) int {
	n := 0
	for _, r := range m.ready {
		if r > now {
			n++
		}
	}
	return n
}
