package core

// LVIP is the Load-Value-Identical Predictor (paper §4.2.5). For
// multi-execution workloads, a load whose address registers are
// mapping-identical across threads reads the *same virtual address* in
// *different processes*; the values usually — but not always — match.
//
// The predictor is a table of load PCs that have previously mispredicted:
// a load predicts "values identical" unless its PC is present. The LSQ
// performs the per-process accesses, verifies the prediction, and the core
// rolls back on a mispredict.
type LVIP struct {
	// tags holds hashed PCs of loads that mispredicted; a direct-mapped
	// table of the configured size.
	tags  []uint64
	valid []bool

	Lookups     uint64
	PredIdent   uint64
	PredDiffer  uint64
	Mispredicts uint64
}

// NewLVIP builds a predictor with n entries (n rounded up to a power of
// two).
func NewLVIP(n int) *LVIP {
	size := 1
	for size < n {
		size <<= 1
	}
	return &LVIP{tags: make([]uint64, size), valid: make([]bool, size)}
}

// reset returns the predictor to the state NewLVIP built it in.
func (p *LVIP) reset() {
	clear(p.tags)
	clear(p.valid)
	p.Lookups, p.PredIdent, p.PredDiffer, p.Mispredicts = 0, 0, 0, 0
}

// Size returns the table capacity.
func (p *LVIP) Size() int { return len(p.tags) }

func (p *LVIP) index(pc uint64) (int, uint64) {
	idx := int(pc >> 2 & uint64(len(p.tags)-1))
	return idx, pc
}

// PredictIdentical predicts whether the load at pc returns identical
// values in all processes. The initial prediction for every load is
// "identical" (paper: "We begin by predicting the value will be
// identical").
func (p *LVIP) PredictIdentical(pc uint64) bool {
	p.Lookups++
	idx, tag := p.index(pc)
	if p.valid[idx] && p.tags[idx] == tag {
		p.PredDiffer++
		return false
	}
	p.PredIdent++
	return true
}

// RecordMispredict marks pc as a load whose values differed after an
// "identical" prediction.
func (p *LVIP) RecordMispredict(pc uint64) {
	p.Mispredicts++
	idx, tag := p.index(pc)
	p.valid[idx] = true
	p.tags[idx] = tag
}

// RecordIdentical lets a previously mispredicting load earn back the
// "identical" prediction when its values match again (simple
// last-outcome update: the entry is removed).
func (p *LVIP) RecordIdentical(pc uint64) {
	idx, tag := p.index(pc)
	if p.valid[idx] && p.tags[idx] == tag {
		p.valid[idx] = false
	}
}
