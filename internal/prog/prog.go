// Package prog provides loaded programs and the architectural (functional)
// machine state the timing simulator executes against: sparse paged memory
// images, per-context register state, and the construction of
// multi-threaded (shared memory) and multi-execution (private memory)
// systems of contexts, mirroring §3.1 of the MMT paper.
package prog

import (
	"fmt"
	"sort"

	"mmt/internal/isa"
)

// Memory layout conventions used by the assembler and workloads. These are
// conventions, not architectural requirements.
const (
	CodeBase  = 0x0000_1000 // default start of the text segment
	DataBase  = 0x0010_0000 // default start of the data segment
	StackTop  = 0x0080_0000 // initial stack pointer of context 0
	StackSize = 0x0001_0000 // per-context stack carve-out (MT mode)
)

const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
)

// Memory is a sparse, paged, 64-bit-word-addressable memory image.
// The zero value is an empty image ready to use. It is not safe for
// concurrent use, reads included: a read updates the last-page cache.
type Memory struct {
	pages map[uint64]*[pageWords]uint64
	// last caches the page numbered lastPN, the most recently used one:
	// consecutive accesses mostly fall in one page, and a hit skips the
	// map lookup.
	last   *[pageWords]uint64
	lastPN uint64
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageWords]uint64)}
}

func (m *Memory) page(addr uint64, create bool) *[pageWords]uint64 {
	pn := addr >> pageShift
	if m.last != nil && m.lastPN == pn {
		return m.last
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageWords]uint64)
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageWords]uint64)
		m.pages[pn] = p
	}
	m.last, m.lastPN = p, pn
	return p
}

// Read64 returns the 64-bit word at addr. Unwritten memory reads as zero.
// addr is truncated to 8-byte alignment.
func (m *Memory) Read64(addr uint64) uint64 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr>>3&(pageWords-1)]
}

// Write64 stores a 64-bit word at addr (truncated to 8-byte alignment).
func (m *Memory) Write64(addr uint64, val uint64) {
	p := m.page(addr, true)
	p[addr>>3&(pageWords-1)] = val
}

// Clone returns a deep copy of the image. Multi-execution systems clone the
// program image once per context so that no memory is shared (§3.1).
// Clone leaves the page cache alone, so goroutines may clone one image
// at once.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, p := range m.pages { // mmtvet:ok — rebuilds a map, order-insensitive
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// Footprint returns the number of bytes of allocated (touched) memory.
func (m *Memory) Footprint() uint64 {
	return uint64(len(m.pages)) * pageBytes
}

// Pages returns the base addresses of every allocated page, ascending.
// Static analyses use this to walk an image without knowing its extent.
func (m *Memory) Pages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for pn := range m.pages { // mmtvet:ok — sorted immediately below
		out = append(out, pn<<pageShift)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageBytes is the allocation granule of Memory, exported for analyses
// that walk Pages().
const PageBytes = pageBytes

var _ isa.Memory = (*Memory)(nil)

// Program is a loaded executable: a contiguous text segment plus an initial
// data image and the symbol table the assembler produced. Systems built
// from one program may share it across goroutines, so once assembled a
// program is read-only, and only Memory.Clone may read its Data: Read64
// writes the image's page cache.
type Program struct {
	Name    string
	Entry   uint64
	Base    uint64 // address of Insts[0]
	Insts   []isa.Inst
	Data    *Memory
	Symbols map[string]uint64
}

// InstAt returns the instruction at pc, or false if pc falls outside the
// text segment.
func (p *Program) InstAt(pc uint64) (isa.Inst, bool) {
	if pc < p.Base || (pc-p.Base)%isa.InstBytes != 0 {
		return isa.Inst{}, false
	}
	idx := (pc - p.Base) / isa.InstBytes
	if idx >= uint64(len(p.Insts)) {
		return isa.Inst{}, false
	}
	return p.Insts[idx], true
}

// Symbol returns the address of a label defined by the program source.
func (p *Program) Symbol(name string) (uint64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// SortedSymbols returns symbol names in address order, for disassembly and
// debugging output.
func (p *Program) SortedSymbols() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols { // mmtvet:ok — sorted by address below
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Mode distinguishes the two workload categories of §3.1.
type Mode uint8

const (
	// ModeMT is a multi-threaded workload: all contexts share one memory
	// image; stack pointers differ; loads to the same virtual address
	// return the same value.
	ModeMT Mode = iota
	// ModeME is a multi-execution workload: each context is a separate
	// process with a private copy of the image; all registers (including
	// SP) start identical; inputs differ in memory.
	ModeME
	// ModeMP is a message-passing workload: private images like ModeME
	// plus one shared mailbox window (MboxBase..MboxBase+MboxSize)
	// through which ranks exchange messages. Built by NewMPSystem.
	ModeMP
)

func (m Mode) String() string {
	switch m {
	case ModeMT:
		return "MT"
	case ModeME:
		return "ME"
	case ModeMP:
		return "MP"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Context is one hardware context: a thread of an MT program, an instance
// of an ME program, or a rank of an MP program.
type Context struct {
	ID    uint8
	State isa.State
	Mem   isa.Memory
	Prog  *Program
	// DynCount counts functionally executed (committed-path) instructions.
	DynCount uint64
}

// Halted reports whether the context has executed halt.
func (c *Context) Halted() bool { return c.State.Halted }

// Step fetches the instruction at the context's PC, executes it
// functionally, writes its effect to *eff and returns it. It is the
// simulator's oracle: the timing model calls Step exactly once per
// committed-path dynamic instruction, with eff pointing into the record
// ring that buffers the effect until commit. It calls it when the record
// is first peeked, not when it is fetched: bookkeeping peeks (the drain
// check before every cycle, merge and fetch-priority checks) produce
// records ahead of fetch. Contexts of a multi-threaded system share one
// memory image, so that production order is the interleaving the run
// simulates (core/stream.go states the rule).
func (c *Context) Step(eff *isa.Effect) (isa.Inst, error) {
	inst, ok := c.Prog.InstAt(c.State.PC)
	if !ok {
		return isa.Inst{}, fmt.Errorf("prog: context %d: PC %#x outside text segment", c.ID, c.State.PC)
	}
	if err := isa.Exec(inst, &c.State, c.Mem, eff); err != nil {
		return inst, err
	}
	c.DynCount++
	return inst, nil
}

// System is a set of contexts running one program in one mode.
type System struct {
	Prog     *Program
	Mode     Mode
	Contexts []*Context
}

// InitFunc prepares the initial data image for one context before the
// system starts: it is how workloads give each thread/instance its input.
// In MT mode it is called once per context against the single shared image
// (writing per-thread input regions); in ME mode it is called against each
// context's private clone.
type InitFunc func(ctx int, mem *Memory)

// NewSystem builds a system of n contexts for p in the given mode.
// init may be nil.
func NewSystem(p *Program, mode Mode, n int, init InitFunc) (*System, error) {
	if n < 1 || n > 4 {
		return nil, fmt.Errorf("prog: context count %d outside 1–4 (MMT ITID is a 4-bit mask)", n)
	}
	s := &System{Prog: p, Mode: mode}
	var shared *Memory
	if mode == ModeMT {
		shared = p.Data.Clone()
		for i := 0; i < n; i++ {
			if init != nil {
				init(i, shared)
			}
		}
	}
	for i := 0; i < n; i++ {
		c := &Context{ID: uint8(i), Prog: p}
		c.State.PC = p.Entry
		c.State.CtxID = uint8(i)
		switch mode {
		case ModeMT:
			c.Mem = shared
			// Threads start with identical registers except SP (§3.1).
			c.State.Reg[isa.RegSP] = StackTop - uint64(i)*StackSize
		case ModeME:
			priv := p.Data.Clone()
			if init != nil {
				init(i, priv)
			}
			c.Mem = priv
			// Instances begin with all registers identical (§3.1).
			c.State.Reg[isa.RegSP] = StackTop
		default:
			return nil, fmt.Errorf("prog: unknown mode %v", mode)
		}
		s.Contexts = append(s.Contexts, c)
	}
	return s, nil
}

// NewMultiSystem builds a heterogeneous multi-programmed system: one
// private-memory context per entry of programs (multi-execution
// semantics). Programs must occupy disjoint text segments (assemble them
// with distinct bases via asm.AssembleAt); contexts of the same program
// can merge under MMT, contexts of different programs never share PCs.
// init, when non-nil, seeds each context's private image.
func NewMultiSystem(programs []*Program, init InitFunc) (*System, error) {
	n := len(programs)
	if n < 1 || n > 4 {
		return nil, fmt.Errorf("prog: context count %d outside 1–4", n)
	}
	s := &System{Mode: ModeME}
	for i, p := range programs {
		priv := p.Data.Clone()
		if init != nil {
			init(i, priv)
		}
		c := &Context{ID: uint8(i), Prog: p}
		c.State.PC = p.Entry
		c.State.CtxID = uint8(i)
		c.State.Reg[isa.RegSP] = StackTop
		c.Mem = priv
		s.Contexts = append(s.Contexts, c)
	}
	return s, nil
}

// NewIdenticalSystem builds the paper's Limit setup (Table 5): n contexts
// whose dynamic instruction streams are *identical* — identical inputs,
// identical stack pointers, identical context ids. For ME programs the
// contexts are instances with cloned images; for MT programs they remain
// threads of one shared-memory process (all performing thread 0's work,
// which is the upper bound on sharing). This is what "running two
// instances with identical inputs" bounds: every instruction can be
// fetched and executed once for all contexts.
func NewIdenticalSystem(p *Program, mode Mode, n int, init InitFunc) (*System, error) {
	s, err := NewSystem(p, mode, n, init)
	if err != nil {
		return nil, err
	}
	for _, c := range s.Contexts {
		// All contexts observe id 0 (and thread 0's stack), so every
		// derived value matches across contexts.
		c.State.CtxID = 0
		c.State.Reg[isa.RegSP] = StackTop
	}
	return s, nil
}

// AllHalted reports whether every context has halted.
func (s *System) AllHalted() bool {
	for _, c := range s.Contexts {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// RunFunctional executes the whole system functionally (round-robin, one
// instruction per context per turn) until all contexts halt or any context
// exceeds maxInsts dynamic instructions. It is used by tests and the
// trace profiler; the timing simulator drives contexts itself.
func (s *System) RunFunctional(maxInsts uint64) error {
	var eff isa.Effect
	for !s.AllHalted() {
		for _, c := range s.Contexts {
			if c.Halted() {
				continue
			}
			if c.DynCount >= maxInsts {
				return fmt.Errorf("prog: context %d exceeded %d instructions without halting", c.ID, maxInsts)
			}
			if _, err := c.Step(&eff); err != nil {
				return err
			}
		}
	}
	return nil
}
