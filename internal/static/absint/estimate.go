package absint

import (
	"math"
	"sort"

	"mmt/internal/isa"
	"mmt/internal/static"
)

// Trip handling for the frequency model: unknown bounds get a default,
// everything is capped so one hot inner loop cannot drown the profile.
const (
	defaultTrip = 16
	maxTrip     = 4096
)

// DivergenceSite is one predicted divergence point: a feasible
// conditional branch whose condition is thread-dependent, annotated with
// the structural reconvergence distance (PR 5's post-dominator span) and
// the estimated execution frequency.
type DivergenceSite struct {
	BranchPC uint64 `json:"branch_pc"`
	ReconvPC uint64 `json:"reconv_pc,omitempty"`
	// SpanInsts is the instruction distance from branch to join (absolute
	// value of the report's span; 0 when no reconvergence point exists).
	SpanInsts int64 `json:"span_insts"`
	// Freq is the site's estimated executions per program run.
	Freq float64 `json:"freq"`
}

// Estimate is the static cost model of one workload: how much of its
// dynamic instruction stream the analysis predicts MMT can merge, and
// where it diverges. Score turns an Estimate into a relative rank for a
// concrete configuration.
type Estimate struct {
	App string `json:"app,omitempty"`
	// StaticInsts counts reachable instructions; DynInsts is the
	// frequency-weighted dynamic estimate.
	StaticInsts int     `json:"static_insts"`
	DynInsts    float64 `json:"dyn_insts"`
	// Redundancy is the predicted merged-commit fraction with an
	// unbounded FHB: the probability-weighted share of dynamic
	// instructions whose inputs are thread-invariant.
	Redundancy float64 `json:"redundancy"`
	// LVIPPotential is the dynamic fraction of loads with a uniform
	// address into thread-varying memory — exactly the accesses the load
	// value identity predictor can still merge when values happen to
	// match.
	LVIPPotential float64 `json:"lvip_potential"`
	// LVIPLoadPCs counts the distinct static load sites behind
	// LVIPPotential (how many predictor entries the workload wants).
	LVIPLoadPCs int `json:"lvip_load_pcs"`
	// Divergence lists the predicted divergence sites, by branch PC.
	Divergence []DivergenceSite `json:"divergence"`

	// perPC is the per-instruction predicted merged probability,
	// PC-ascending (kept out of the JSON surface; the crossval join and
	// the profile correlation use it).
	perPC []pcProb
}

type pcProb struct {
	pc     uint64
	merged float64
	freq   float64
}

// divergeProb is the assumed probability that one execution of a
// thread-dependent branch actually splits the thread group.
const divergeProb = 0.5

// EstimateOf condenses an interpretation result into the cost model.
func EstimateOf(r *Result) *Estimate {
	a := r.A
	e := &Estimate{App: a.Prog.Name}

	freq := blockFreqs(r)

	// Reconvergence spans from the structural report.
	spans := map[uint64]static.ReconvEntry{}
	for _, entry := range a.BuildReport().Reconv {
		spans[entry.BranchPC] = entry
	}

	// Divergence shadows: blocks on the diverged paths of each
	// thread-dependent branch (to its reconvergence block) see their
	// merge probability scaled by divergeProb.
	shadow := make([]float64, len(a.Blocks))
	for i := range shadow {
		shadow[i] = 1.0
	}
	for _, bf := range r.Branches {
		if bf.Dep != DepThread || !bf.CanTake || !bf.CanFall {
			continue
		}
		b := a.BlockAt(bf.PC)
		if b < 0 {
			continue
		}
		stop := -1
		if rc, ok := a.Reconv[bf.PC]; ok {
			stop = a.BlockAt(rc)
		}
		for _, sb := range shadowBlocks(a, b, stop) {
			shadow[sb] *= 1 - divergeProb
		}
	}

	// Per-instruction classification pass.
	var totalW, mergedW, lvipW float64
	lvipPCs := map[uint64]bool{}
	accessAt := map[uint64]*Access{}
	for i := range r.Accesses {
		accessAt[r.Accesses[i].PC] = &r.Accesses[i]
	}
	for b := range a.Blocks {
		if !a.Reachable[b] {
			continue
		}
		f := freq[b]
		if f <= 0 {
			continue
		}
		sh := shadow[b]
		r.walkBlock(b, func(pc uint64, in isa.Inst, st *state) {
			e.StaticInsts++
			base, lvip := mergedBase(r, in, st, accessAt[pc])
			p := base * sh
			totalW += f
			mergedW += f * p
			if lvip {
				lvipW += f * sh
				lvipPCs[pc] = true
			}
			e.perPC = append(e.perPC, pcProb{pc: pc, merged: p, freq: f})
		})
	}
	e.DynInsts = totalW
	if totalW > 0 {
		e.Redundancy = mergedW / totalW
		e.LVIPPotential = lvipW / totalW
	}
	e.LVIPLoadPCs = len(lvipPCs)

	// Divergence profile.
	for _, bf := range r.Branches {
		if bf.Dep != DepThread || !bf.CanTake || !bf.CanFall {
			continue
		}
		b := a.BlockAt(bf.PC)
		if b < 0 || freq[b] <= 0 {
			continue
		}
		site := DivergenceSite{BranchPC: bf.PC, Freq: freq[b]}
		if entry, ok := spans[bf.PC]; ok {
			site.ReconvPC = entry.ReconvPC
			site.SpanInsts = entry.Span
			if site.SpanInsts < 0 {
				site.SpanInsts = -site.SpanInsts
			}
		}
		e.Divergence = append(e.Divergence, site)
	}
	sort.Slice(e.Divergence, func(i, j int) bool { return e.Divergence[i].BranchPC < e.Divergence[j].BranchPC })
	sort.Slice(e.perPC, func(i, j int) bool { return e.perPC[i].pc < e.perPC[j].pc })
	return e
}

// mergedBase classifies one instruction: 1 when every input is
// thread-invariant (MMT commits it merged), else 0. lvip marks the
// uniform-address/varying-value loads the LVIP can still rescue.
func mergedBase(r *Result, in isa.Inst, st *state, acc *Access) (base float64, lvip bool) {
	if in.Op == isa.OpTid && r.Opts.threads() > 1 {
		return 0, false
	}
	if in.Op == isa.OpLd && acc != nil {
		if acc.Addr.Dep == DepThread {
			return 0, false
		}
		if acc.Val.Dep == DepThread {
			// Uniform address, varying contents: split unless the LVIP
			// verifies matching values.
			return 0, true
		}
		return 1, false
	}
	srcs, n := in.Sources()
	for i := 0; i < n; i++ {
		if st.get(srcs[i]).Dep == DepThread {
			return 0, false
		}
	}
	return 1, false
}

// shadowBlocks returns the blocks reachable from branch block b without
// passing through the reconvergence block stop (the diverged region).
func shadowBlocks(a *static.Analysis, b, stop int) []int {
	seen := make([]bool, len(a.Blocks))
	var out []int
	var stack []int
	for _, s := range a.Blocks[b].Succs {
		if s != stop && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, x)
		for _, s := range a.Blocks[x].Succs {
			if s != stop && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	sort.Ints(out)
	return out
}

// blockFreqs estimates per-block execution counts: single-pass
// propagation over the acyclic CFG (back edges removed), 50/50 branch
// splits unless feasibility proves a side dead, then multiplication by
// the loop trip counts of every containing loop.
func blockFreqs(r *Result) []float64 {
	a := r.A
	n := len(a.Blocks)
	freq := make([]float64, n)
	if n == 0 {
		return freq
	}

	dominates := func(v, u int) bool {
		for x := u; x >= 0; x = a.IDom[x] {
			if x == v {
				return true
			}
		}
		return false
	}
	isBack := func(from, to int) bool { return dominates(to, from) }

	// Kahn topological order of the forward edges.
	indeg := make([]int, n)
	for b := 0; b < n; b++ {
		for _, s := range a.Blocks[b].Succs {
			if !isBack(b, s) {
				indeg[s]++
			}
		}
		if c := a.Blocks[b].Callee; c >= 0 && !isBack(b, c) {
			indeg[c]++
		}
	}
	if a.Entry >= 0 {
		freq[a.Entry] = 1
	}
	var queue []int
	for b := 0; b < n; b++ {
		if indeg[b] == 0 {
			queue = append(queue, b)
		}
	}
	branchAt := map[uint64]BranchFact{}
	for _, bf := range r.Branches {
		branchAt[bf.PC] = bf
	}
	for len(queue) > 0 {
		sort.Ints(queue) // deterministic processing order
		b := queue[0]
		queue = queue[1:]
		f := freq[b]
		blk := &a.Blocks[b]
		push := func(s int, w float64) {
			if isBack(b, s) {
				return
			}
			freq[s] += f * w
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
		switch blk.Term {
		case static.TermBranch:
			pTaken := 0.5
			if bf, ok := branchAt[blk.TermPC]; ok {
				switch {
				case !bf.CanFall && bf.CanTake:
					pTaken = 1
				case !bf.CanTake && bf.CanFall:
					pTaken = 0
				}
			}
			fall := -1
			if b+1 < n {
				fall = b + 1
			}
			taken := -1
			if tgt, ok := a.Prog.Insts[blk.First+blk.N-1].ControlTarget(); ok {
				taken = a.BlockAt(tgt)
			}
			if taken == fall {
				if fall >= 0 {
					push(fall, 1)
				}
			} else {
				if fall >= 0 {
					push(fall, 1-pTaken)
				}
				if taken >= 0 {
					push(taken, pTaken)
				}
			}
		default:
			for _, s := range blk.Succs {
				push(s, 1)
			}
			if c := blk.Callee; c >= 0 {
				push(c, 1)
			}
		}
	}

	// Loop multipliers.
	for i, lb := range r.Loops {
		trip := lb.Trip
		if trip <= 0 {
			trip = defaultTrip
		}
		if trip > maxTrip {
			trip = maxTrip
		}
		for b := range r.A.Loops[i].Body {
			freq[b] *= float64(trip)
		}
	}
	for b := 0; b < n; b++ {
		if !a.Reachable[b] {
			freq[b] = 0
		} else if freq[b] == 0 {
			// Reachable but missed by the DAG pass (e.g. entered only via a
			// back edge from an irreducible region): count it once.
			freq[b] = 1
		}
	}
	return freq
}

// Score ranks one configuration for this workload: a relative
// throughput score (higher is better) and a relative energy cost
// (lower is better). The throughput score combines a fetch-bandwidth
// term (wider fetch feeds the backend faster, log2 for diminishing
// returns) with the predicted merged fraction the configuration can
// actually bank: divergence sites whose reconvergence span overflows
// the FHB forfeit their shadowed redundancy, and LVIP recovery scales
// with predictor capacity. Without the bandwidth term the merge terms
// saturate on short-span kernels and the energy tiebreak would rank
// narrow-fetch machines first — backwards, since real IPC rises with
// width. These are ordering signals for the DSE ranker, not absolute
// IPC or joules. The sizes are a resolved configuration's, all positive.
func (e *Estimate) Score(fhbSize, fetchWidth, lvipSize int) (throughput, energy float64) {
	cover := 1.0
	var totalF, coveredF float64
	for _, d := range e.Divergence {
		totalF += d.Freq
		blocks := (d.SpanInsts + int64(fetchWidth) - 1) / int64(fetchWidth)
		if d.SpanInsts > 0 && blocks <= int64(fhbSize) {
			coveredF += d.Freq
		}
	}
	if totalF > 0 {
		cover = coveredF / totalF
	}
	lvipFrac := 1.0
	if need := e.LVIPLoadPCs * 64; need > 0 && lvipSize < need {
		lvipFrac = float64(lvipSize) / float64(need)
	}
	throughput = 0.25*math.Log2(float64(fetchWidth)) +
		e.Redundancy*cover + divergeProb*e.LVIPPotential*lvipFrac
	// Relative structure cost: FHB entries store fetch blocks, the LVIP
	// stores value/PC pairs. log2 keeps doublings comparable.
	energy = math.Log2(float64(fhbSize*fetchWidth)) + 0.25*math.Log2(float64(lvipSize))
	return throughput, energy
}
