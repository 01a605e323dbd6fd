package core

import (
	"mmt/internal/isa"
	"mmt/internal/prog"
)

// RST is the Register Sharing Table (paper §4.2.1–4.2.3). The hardware
// keeps one bit per thread pair per architected register, set when the two
// threads' architected→physical mappings are identical. The model tracks
// the mappings themselves as *versions*: a merged register write installs
// one fresh version for every thread in the instruction's ITID, a split
// write installs distinct versions, and a pair's RST bit is "versions
// equal". This is exactly mapping identity — values are never consulted,
// except by the commit-time register-merging mechanism, which re-unifies
// versions after proving value equality.
type RST struct {
	nthreads int
	version  [MaxThreads][isa.NumRegs]uint64
	nextVer  uint64
	// byMerge marks registers whose current cross-thread equality was
	// established by register merging (for Fig. 5(b) attribution).
	byMerge [MaxThreads][isa.NumRegs]bool

	// Updates counts destination-register sharing updates (the RST is
	// written every rename; an energy event).
	Updates uint64
	// MergeSets counts pair bits set back to 1 by register merging.
	MergeSets uint64

	// classes and regMergeAssisted hold Partition's results.
	classes          [MaxThreads]ITID
	regMergeAssisted [MaxThreads]bool
}

// NewRST builds the table for n threads in the given workload mode. In ME
// mode all architected registers start mapping-identical; in MT mode all
// except the stack pointer do (paper §4.2.6).
func NewRST(n int, mode prog.Mode) *RST {
	r := new(RST)
	r.init(n, mode)
	return r
}

// init sets r to the table NewRST builds, whatever it held before.
func (r *RST) init(n int, mode prog.Mode) {
	*r = RST{nthreads: n}
	for reg := 0; reg < isa.NumRegs; reg++ {
		r.nextVer++
		v := r.nextVer
		for t := 0; t < n; t++ {
			r.version[t][reg] = v
		}
	}
	if mode == prog.ModeMT {
		for t := 0; t < n; t++ {
			r.nextVer++
			r.version[t][isa.RegSP] = r.nextVer
		}
	}
}

// Shared reports whether threads i and j currently have identical mappings
// for reg (the RST pair bit).
func (r *RST) Shared(i, j int, reg uint8) bool {
	return r.version[i][reg] == r.version[j][reg]
}

// WriteMerged installs one fresh destination mapping shared by every
// thread in itid (an execute-identical instruction's single physical
// destination recorded in all threads' RATs, §4.2.4).
func (r *RST) WriteMerged(itid ITID, reg uint8) {
	r.Updates++
	if reg == isa.RegZero {
		return
	}
	r.nextVer++
	v := r.nextVer
	for t := 0; t < r.nthreads; t++ {
		if itid.Has(t) {
			r.version[t][reg] = v
			r.byMerge[t][reg] = false
		}
	}
}

// WriteSplit installs a fresh private mapping for thread t.
func (r *RST) WriteSplit(t int, reg uint8) {
	r.Updates++
	if reg == isa.RegZero {
		return
	}
	r.nextVer++
	r.version[t][reg] = r.nextVer
	r.byMerge[t][reg] = false
}

// MergeInto records that register merging proved thread other's reg holds
// the same value as thread owner's: other adopts owner's mapping and the
// pair bit becomes 1 (§4.2.7).
func (r *RST) MergeInto(owner, other int, reg uint8) {
	if reg == isa.RegZero || r.version[owner][reg] == r.version[other][reg] {
		return
	}
	r.version[other][reg] = r.version[owner][reg]
	r.byMerge[other][reg] = true
	r.MergeSets++
}

// Partition splits itid into the minimal set of sub-ITIDs such that within
// each sub-ITID every source register in srcs is mapping-identical across
// all member threads. This is the architectural effect of the paper's
// Filter + Chooser cascade (§4.2.2): repeatedly choosing the valid sharing
// combination with the most threads yields exactly the equivalence classes
// of the "all sources shared" relation.
//
// The returned classes are ordered by descending size (chooser order),
// ties broken by lowest member thread. regMergeAssisted is set per class
// when the class has ≥2 threads and any member's source equality was
// established by register merging. Both slices are backed by the table
// and valid until the next call.
func (r *RST) Partition(itid ITID, srcs []uint8) (classes []ITID, regMergeAssisted []bool) {
	classes, regMergeAssisted = r.classes[:0], r.regMergeAssisted[:0]
	if itid.Count() <= 1 {
		return append(classes, itid), append(regMergeAssisted, false)
	}
	for m := itid; m != 0; m &= m - 1 {
		t := m.First()
		placed := false
		for ci := range classes {
			rep := classes[ci].First()
			same := true
			for _, s := range srcs {
				if s != isa.RegZero && !r.Shared(rep, t, s) {
					same = false
					break
				}
			}
			if same {
				classes[ci] = classes[ci].With(t)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, ITIDOf(t))
		}
	}
	// Chooser order: descending size, stable by first member.
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && better(classes[j], classes[j-1]); j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	for _, cl := range classes {
		assisted := false
		if cl.Count() >= 2 {
			for m := cl; m != 0; m &= m - 1 {
				for _, s := range srcs {
					if s != isa.RegZero && r.byMerge[m.First()][s] {
						assisted = true
					}
				}
			}
		}
		regMergeAssisted = append(regMergeAssisted, assisted)
	}
	return classes, regMergeAssisted
}

func better(a, b ITID) bool {
	if a.Count() != b.Count() {
		return a.Count() > b.Count()
	}
	return a.First() < b.First()
}

// Desync installs fresh private mappings for every register written while
// threads run divergent paths — the model calls WriteSplit directly; this
// helper exists for tests that force whole-file divergence.
func (r *RST) Desync(t int) {
	for reg := 1; reg < isa.NumRegs; reg++ {
		r.WriteSplit(t, uint8(reg))
	}
}

// SharedCount returns how many architected registers are mapping-identical
// between threads i and j (observability for tests/stats).
func (r *RST) SharedCount(i, j int) int {
	n := 0
	for reg := 0; reg < isa.NumRegs; reg++ {
		if r.Shared(i, j, uint8(reg)) {
			n++
		}
	}
	return n
}
