// Package workloads provides the sixteen benchmark kernels of the paper's
// evaluation (Table 1): seven multi-execution programs (SPEC2000 + libsvm)
// and nine multi-threaded programs (SPLASH-2 + PARSEC), written in the
// simulator's assembly language.
//
// The original binaries cannot be run on this ISA, so each application is
// a synthetic kernel that reproduces the *inter-thread redundancy profile*
// the paper reports for that application — the mix of shared vs.
// thread-varying data, the frequency and length of control divergence, and
// the load-value similarity across processes — because those are the only
// properties the MMT mechanisms observe. DESIGN.md §2 records this
// substitution.
package workloads

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mmt/internal/asm"
	"mmt/internal/prog"
)

// InitFunc seeds one context's input data given the assembled program (for
// symbol lookup). identical forces every context to receive context 0's
// inputs (the paper's Limit configuration runs "two instances with
// identical inputs").
type InitFunc func(p *prog.Program, ctx int, mem *prog.Memory, identical bool)

// App is one benchmark.
type App struct {
	Name  string
	Suite string
	Mode  prog.Mode
	// Source is the assembly text.
	Source string
	// Init seeds per-context inputs; nil when the program is self-
	// contained.
	Init InitFunc
	// About summarizes what the kernel models and which redundancy
	// profile it reproduces.
	About string
	// Ranks lists the thread counts a message-passing kernel's channel
	// protocol completes at, smallest first; nil means any count.
	Ranks []int
}

var registry []App

func register(a App) {
	registry = append(registry, a)
}

// All returns the paper's sixteen applications in Figure 1 order:
// multi-execution first, then SPLASH-2, then PARSEC. Extension suites
// (message passing, see MP) are not included.
func All() []App {
	var out []App
	for _, a := range registry {
		if a.Suite != "MP" {
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return appOrder(out[i].Name) < appOrder(out[j].Name)
	})
	return out
}

// paperOrder lists the sixteen applications in presentation order.
var paperOrder = []string{
	"libsvm", "ammp", "twolf", "vortex", "vpr", "equake", "mcf",
	"ocean", "lu", "fft", "water-ns", "water-sp",
	"swaptions", "fluidanimate", "blackscholes", "canneal",
}

func appOrder(name string) int {
	for i, n := range paperOrder {
		if n == name {
			return i
		}
	}
	return len(paperOrder)
}

// Names returns the application names in paper order.
func Names() []string {
	out := make([]string, len(paperOrder))
	copy(out, paperOrder)
	return out
}

// ByName finds an application.
func ByName(name string) (App, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// assembly is one registry source's program, assembled on first use.
type assembly struct {
	source string
	once   sync.Once
	p      *prog.Program
	err    error
}

var (
	assembliesOnce sync.Once
	assemblies     map[string]*assembly // by registry name
)

// program returns a's assembled program. A registry source is assembled
// once per process and its program shared, read-only, by every Build
// after that: its contexts clone the data image and never write the
// program. Any other source (an Override, a test's kernel) is assembled
// afresh, so the memo holds the registry and nothing else however many
// variants a long-running process builds.
func (a App) program() (*prog.Program, error) {
	assembliesOnce.Do(func() {
		assemblies = make(map[string]*assembly, len(registry))
		for _, r := range registry {
			assemblies[r.Name] = &assembly{source: r.Source}
		}
	})
	e := assemblies[a.Name]
	if e == nil || e.source != a.Source {
		return asm.Assemble(a.Name, a.Source)
	}
	e.once.Do(func() { e.p, e.err = asm.Assemble(a.Name, a.Source) })
	return e.p, e.err
}

// Build assembles the application and creates an n-context system.
// identicalInputs selects the paper's Limit setup (Table 5): n *identical
// instances* — same inputs, same context ids, private address spaces —
// regardless of the application's normal mode. Systems built from a
// registry source share one read-only program (see program).
func (a App) Build(n int, identicalInputs bool) (*prog.System, error) {
	if err := a.CheckThreads(n); err != nil {
		return nil, err
	}
	p, err := a.program()
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", a.Name, err)
	}
	if a.Mode == prog.ModeMP {
		// Message-passing ranks keep their identities even in the
		// identical-inputs setup (the channel protocol requires them);
		// "identical" then means identical private images.
		var init prog.InitFunc
		if a.Init != nil {
			init = func(ctx int, mem *prog.Memory) {
				if identicalInputs {
					ctx = 0
				}
				a.Init(p, ctx, mem, identicalInputs)
			}
		}
		sys, err := prog.NewMPSystem(p, n, init)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", a.Name, err)
		}
		return sys, nil
	}
	if identicalInputs {
		// Every context gets context 0's inputs.
		var init prog.InitFunc
		if a.Init != nil {
			init = func(_ int, mem *prog.Memory) {
				a.Init(p, 0, mem, true)
			}
		}
		sys, err := prog.NewIdenticalSystem(p, a.Mode, n, init)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", a.Name, err)
		}
		return sys, nil
	}
	var init prog.InitFunc
	if a.Init != nil {
		init = func(ctx int, mem *prog.Memory) {
			a.Init(p, ctx, mem, false)
		}
	}
	sys, err := prog.NewSystem(p, a.Mode, n, init)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", a.Name, err)
	}
	return sys, nil
}

// sym resolves a label, panicking on absence (programs are compiled-in
// constants; a missing label is a programming error).
func sym(p *prog.Program, name string) uint64 {
	v, ok := p.Symbol(name)
	if !ok {
		panic(fmt.Sprintf("workloads: %s: missing symbol %q", p.Name, name))
	}
	return v
}

// lcg steps a deterministic 64-bit linear congruential generator; used to
// fill input arrays reproducibly.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// fillWords writes n pseudo-random 64-bit words at base, seeded by seed.
func fillWords(mem *prog.Memory, base uint64, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x = lcg(x)
		mem.Write64(base+uint64(i)*8, x)
	}
}

// fillDoubles writes n pseudo-random doubles in (0,1) at base.
func fillDoubles(mem *prog.Memory, base uint64, n int, seed uint64) {
	x := seed
	for i := 0; i < n; i++ {
		x = lcg(x)
		f := float64(x>>11) / float64(1<<53)
		mem.Write64(base+uint64(i)*8, math.Float64bits(f))
	}
}

// CheckThreads refuses a thread count outside Ranks: at any other count a
// message-passing kernel waits on a rank that does not exist, forever.
func (a App) CheckThreads(n int) error {
	if a.Ranks == nil || slices.Contains(a.Ranks, n) {
		return nil
	}
	counts := make([]string, len(a.Ranks))
	for i, r := range a.Ranks {
		counts[i] = strconv.Itoa(r)
	}
	return fmt.Errorf("workloads: %s runs on %s ranks, not %d", a.Name, strings.Join(counts, " or "), n)
}

// Override returns a copy of the application with the named `.equ`
// constants rebound to new values — the knob for scaling a kernel's
// iteration counts or data sizes without editing its source. Unknown
// names are reported as an error at Build time via the marker below.
func (a App) Override(consts map[string]int64) App {
	src := a.Source
	var missing []string
	for name, val := range consts { // mmtvet:ok — distinct lines edited; missing list sorted below
		idx := findEqu(src, name)
		if idx < 0 {
			missing = append(missing, name)
			continue
		}
		end := idx
		for end < len(src) && src[end] != '\n' {
			end++
		}
		src = src[:idx] + fmt.Sprintf("        .equ  %s, %d", name, val) + src[end:]
	}
	out := a
	out.Source = src
	if len(missing) > 0 {
		sort.Strings(missing)
		// Poison the source so Build reports the problem clearly.
		out.Source = fmt.Sprintf("        .overridemissing %s\n", strings.Join(missing, ",")) + src
	}
	return out
}

// findEqu locates the start of the line defining `.equ name,` in src.
func findEqu(src, name string) int {
	needle := ".equ  " + name + ","
	off := 0
	for {
		i := strings.Index(src[off:], needle)
		if i < 0 {
			return -1
		}
		i += off
		// Back up to the start of the line.
		j := i
		for j > 0 && src[j-1] != '\n' {
			j--
		}
		// The line must contain only whitespace before the directive.
		if strings.TrimSpace(src[j:i]) == "" {
			return j
		}
		off = i + len(needle)
	}
}
