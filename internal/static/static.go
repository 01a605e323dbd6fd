// Package static is the control-flow analyzer for assembled programs.
// Where the MMT core discovers reconvergence *dynamically* — the FHB spots
// a remerge target in another thread's fetch history, CATCHUP drives the
// behind group to it — this package computes what the program's structure
// says *should* happen: basic blocks, dominator and post-dominator trees
// (Cooper-Harvey-Kennedy), and the immediate post-dominator of every
// conditional branch, which is the structural reconvergence point SPMD
// threads re-join at.
//
// On top of the CFG the analyzer derives structural findings (invalid
// branch targets, unreachable code, paths that fall off the end of the
// text segment, registers read before any write reaches them,
// indirect-branch escape sites) and a static redundancy report
// (straight-line shareable regions, loop structure, per-branch
// reconvergence distances). Every lint that needs register values lives
// in the abstract interpreter (internal/static/absint), whose
// Result.Findings joins both halves for cmd/mmtcheck and the -precheck
// admission gates; CrossValidate joins the static predictions against a
// dynamic attribution profile (internal/prof) as an invariant check on
// the FHB/CATCHUP machinery itself.
package static

import (
	"fmt"
	"sort"

	"mmt/internal/isa"
	"mmt/internal/prog"
)

// Severity ranks a finding. Text and JSON encodings are stable strings.
type Severity uint8

const (
	// SevInfo: worth knowing, never a failure (e.g. an indirect branch
	// the analyzer cannot follow).
	SevInfo Severity = iota
	// SevWarning: almost certainly a program bug, but execution stays
	// defined (unreachable code, a register read before any write).
	SevWarning
	// SevError: the program can leave the text segment, execute an
	// undecodable instruction, or corrupt its own code.
	SevError
)

var severityNames = [...]string{SevInfo: "info", SevWarning: "warning", SevError: "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity maps a stable severity name back to its value.
func ParseSeverity(name string) (Severity, error) {
	for i, n := range severityNames {
		if n == name {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("static: unknown severity %q (want info, warning or error)", name)
}

// MarshalJSON encodes the severity as its stable name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("static: bad severity %s", b)
	}
	v, err := ParseSeverity(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Finding codes. Stable identifiers for CI consumers; the set may grow.
const (
	CodeEntry         = "bad-entry"         // entry PC outside the text segment
	CodeInvalidOp     = "invalid-opcode"    // undecodable instruction on an executable path
	CodeBranchTarget  = "branch-target"     // branch/jump target invalid, out of range or misaligned
	CodeFallsOffEnd   = "falls-off-end"     // an executable path runs past the end of the text segment
	CodeUnreachable   = "unreachable"       // block no execution path reaches
	CodeReadBeforeWr  = "read-before-write" // register read before any write reaches it on some path
	CodeIndirect      = "indirect-branch"   // jalr escape site: targets unknown to the analyzer
	CodeRemergeNonPD  = "remerge-non-postdom"
	CodeRemergeLoop   = "remerge-loop-carried"
	CodeReconvMissed  = "reconv-never-observed"
	CodeDivergeNoJoin = "diverge-never-remerged"
	CodeProfileSite   = "profile-site" // profile attribution at a PC outside the program text
)

// Finding is one analyzer diagnostic, attached to a static PC.
type Finding struct {
	Sev  Severity `json:"severity"`
	Code string   `json:"code"`
	PC   uint64   `json:"pc"`
	Msg  string   `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %#x: %s: %s", f.Sev, f.PC, f.Code, f.Msg)
}

// Analysis is the full static view of one program.
type Analysis struct {
	Prog   *prog.Program
	Blocks []Block
	// Entry is the entry block index (-1 if the entry PC is invalid).
	Entry int
	// Roots are the reachability roots: the entry block plus every called
	// function entry, in block order.
	Roots []int
	// Reachable marks blocks some execution path can reach.
	Reachable []bool
	// IDom and IPDom are the immediate (post)dominator trees as block
	// indices; -1 marks a root, an unreachable block, or (for IPDom) a
	// block no path connects to program exit.
	IDom, IPDom []int
	// Reconv maps every conditional branch PC to its predicted
	// reconvergence PC — the first instruction of the branch block's
	// immediate post-dominator. Branches with no post-dominator path to
	// exit (e.g. both arms halt) are absent.
	Reconv map[uint64]uint64
	// Loops are the natural loops found via back edges, outermost first.
	Loops []Loop
	// Findings are the analyzer diagnostics, sorted by PC then code.
	Findings []Finding
}

// Loop is one natural loop (back edge whose target dominates its source).
type Loop struct {
	// HeadPC is the loop header's first instruction.
	HeadPC uint64 `json:"head_pc"`
	// BackPC is the PC of the branch/jump forming the back edge.
	BackPC uint64 `json:"back_pc"`
	// Blocks and Insts measure the loop body (header included).
	Blocks int `json:"blocks"`
	Insts  int `json:"insts"`
	// Depth is the nesting depth (1 = outermost).
	Depth int `json:"depth"`
	// Body is the set of block indices in the loop (header included),
	// for the abstract interpreter's trip inference and cost model.
	Body map[int]bool `json:"-"`
}

// Analyze builds the full static view of p. It never fails: structural
// problems become findings, and the analysis is as complete as the
// program allows (an empty text segment yields an empty CFG with an
// error finding).
func Analyze(p *prog.Program) *Analysis {
	a := &Analysis{Prog: p, Entry: -1, Reconv: make(map[uint64]uint64)}
	a.buildCFG()
	a.computeReachability()
	a.computeDominators()
	a.computeReconvergence()
	a.findLoops()
	a.checkDataflow()
	sort.SliceStable(a.Findings, func(i, j int) bool {
		if a.Findings[i].PC != a.Findings[j].PC {
			return a.Findings[i].PC < a.Findings[j].PC
		}
		return a.Findings[i].Code < a.Findings[j].Code
	})
	return a
}

// addFinding appends a diagnostic.
func (a *Analysis) addFinding(sev Severity, code string, pc uint64, format string, args ...any) {
	a.Findings = append(a.Findings, Finding{Sev: sev, Code: code, PC: pc, Msg: fmt.Sprintf(format, args...)})
}

// MaxSeverity returns the highest severity among the findings, and false
// if there are none.
func (a *Analysis) MaxSeverity() (Severity, bool) {
	return maxSeverity(a.Findings)
}

func maxSeverity(fs []Finding) (Severity, bool) {
	if len(fs) == 0 {
		return 0, false
	}
	max := SevInfo
	for _, f := range fs {
		if f.Sev > max {
			max = f.Sev
		}
	}
	return max, true
}

// CountBySeverity tallies findings at least as severe as each level.
func CountBySeverity(fs []Finding) (errors, warnings, infos int) {
	for _, f := range fs {
		switch f.Sev {
		case SevError:
			errors++
		case SevWarning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// pcOf returns the address of instruction index i.
func (a *Analysis) pcOf(i int) uint64 {
	return a.Prog.Base + uint64(i)*isa.InstBytes
}

// indexOf returns the instruction index of pc, or -1 if pc is outside the
// text segment or misaligned.
func (a *Analysis) indexOf(pc uint64) int {
	if pc < a.Prog.Base || (pc-a.Prog.Base)%isa.InstBytes != 0 {
		return -1
	}
	idx := (pc - a.Prog.Base) / isa.InstBytes
	if idx >= uint64(len(a.Prog.Insts)) {
		return -1
	}
	return int(idx)
}

// BlockAt returns the index of the block containing pc, or -1.
func (a *Analysis) BlockAt(pc uint64) int {
	i := sort.Search(len(a.Blocks), func(i int) bool { return a.Blocks[i].End > pc })
	if i < len(a.Blocks) && a.Blocks[i].Start <= pc && pc < a.Blocks[i].End {
		return i
	}
	return -1
}

// PostDominates reports whether the instruction at pc post-dominates the
// instruction at q: every execution path from q to program exit passes
// through pc. Within one block it is straight-line order; across blocks
// it is ancestry in the post-dominator tree.
func (a *Analysis) PostDominates(pc, q uint64) bool {
	bp, bq := a.BlockAt(pc), a.BlockAt(q)
	if bp < 0 || bq < 0 {
		return false
	}
	if bp == bq {
		return pc >= q
	}
	// Walk q's post-dominator chain looking for pc's block.
	for b := a.IPDom[bq]; b >= 0; b = a.IPDom[b] {
		if b == bp {
			return true
		}
	}
	return false
}
