package absint

import (
	"fmt"
	"sort"
	"strings"

	"mmt/internal/asm"
	"mmt/internal/prog"
	"mmt/internal/static"
	"mmt/internal/workloads"
)

// OptionsForApp derives the interpretation context of one workload: the
// initial stack-pointer value set for its execution mode and the
// thread-varying input regions discovered by diffing the per-context
// initial images.
func OptionsForApp(p *prog.Program, a workloads.App, threads int) Options {
	if threads <= 0 {
		threads = 2
	}
	opts := Options{Threads: threads}
	switch a.Mode {
	case prog.ModeMT:
		// Shared memory, one stack carve-out per context: SP is a strided
		// thread-dependent set (context i starts at StackTop - i*StackSize).
		lo := int64(prog.StackTop - uint64(threads-1)*prog.StackSize)
		opts.SP = Range(lo, int64(prog.StackTop), prog.StackSize, DepThread)
	default:
		// Private images: every context's SP starts at StackTop.
		opts.SP = Const(int64(prog.StackTop))
	}
	if a.Mode != prog.ModeMT && a.Init != nil && threads > 1 {
		opts.Varying = initImageDiff(p, a)
	}
	if a.Mode == prog.ModeMP {
		// Ranks exchange data through the mailbox window; everything in it
		// is cross-thread by construction.
		opts.Varying = append(opts.Varying, AddrRange{Lo: prog.MboxBase, Hi: prog.MboxBase + prog.MboxSize})
	}
	return opts
}

// initImageDiff runs the workload's Init for two contexts against fresh
// images and coalesces the differing words into address ranges: the
// memory whose initial contents depend on the thread identity.
func initImageDiff(p *prog.Program, a workloads.App) []AddrRange {
	m0, m1 := prog.NewMemory(), prog.NewMemory()
	a.Init(p, 0, m0, false)
	a.Init(p, 1, m1, false)

	pageSet := map[uint64]bool{}
	for _, pg := range m0.Pages() {
		pageSet[pg] = true
	}
	for _, pg := range m1.Pages() {
		pageSet[pg] = true
	}
	pages := make([]uint64, 0, len(pageSet))
	for pg := range pageSet { // mmtvet:ok — sorted immediately below
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })

	var out []AddrRange
	for _, pg := range pages {
		for off := uint64(0); off < prog.PageBytes; off += 8 {
			addr := pg + off
			if m0.Read64(addr) == m1.Read64(addr) {
				continue
			}
			if n := len(out); n > 0 && out[n-1].Hi == addr {
				out[n-1].Hi = addr + 8
			} else {
				out = append(out, AddrRange{Lo: addr, Hi: addr + 8})
			}
		}
	}
	return out
}

// AnalyzeApp assembles a workload and runs the abstract interpretation
// with its mode-derived options.
func AnalyzeApp(a workloads.App, threads int) (*Result, error) {
	p, err := asm.Assemble(a.Name, a.Source)
	if err != nil {
		return nil, err
	}
	sa := static.Analyze(p)
	return Run(sa, OptionsForApp(p, a, threads)), nil
}

// EstimateApp produces the static cost model of one workload.
func EstimateApp(a workloads.App, threads int) (*Estimate, error) {
	r, err := AnalyzeApp(a, threads)
	if err != nil {
		return nil, err
	}
	return EstimateOf(r), nil
}

// CheckApp is the static admission gate behind mmtsim/mmtbench -precheck
// and mmtserved -precheck. It analyzes the workload as mmtcheck -app
// does (mode-aware options, two contexts) and returns an error listing
// the error-severity findings, so it refuses exactly what mmtcheck
// -fail-on error refuses. Warnings and infos never block execution.
func CheckApp(a workloads.App) error {
	r, err := AnalyzeApp(a, 2)
	if err != nil {
		return fmt.Errorf("assembling %s: %w", a.Name, err)
	}
	var errs []string
	for _, f := range r.Findings() {
		if f.Sev == static.SevError {
			errs = append(errs, f.String())
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("program %s has %d error findings: %s", a.Name, len(errs), strings.Join(errs, "; "))
}
