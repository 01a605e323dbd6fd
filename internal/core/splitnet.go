package core

// SplitNetwork is a structural model of the paper's instruction-splitting
// logic (§4.2.2): the combinational cascade the authors synthesized in
// VHDL (§4.3, Table 3's "Inst Split" row). It computes the same minimal
// ITID set as RST.Partition, but the way the hardware does:
//
//  1. For every *entry* — every sharing combination of 2–4 threads — AND
//     together the RST pair bits of all source registers: the entry is 1
//     iff every pair inside the combination shares every source.
//  2. The Filter masks out entries that are not subsets of the incoming
//     ITID ("not possible outcomes of this ITID").
//  3. The Chooser outputs the surviving entry with the most threads.
//  4. The cascade repeats on the remaining threads — at most three splits
//     for four threads ("we can split the instruction up to three times").
//
// The equivalence of this cascade with the register-version partition is
// checked by TestSplitNetworkMatchesPartition; it holds because RST pair
// bits derived from mapping versions form an equivalence relation.
type SplitNetwork struct {
	threads int
	// entries are the candidate EIDs: every thread subset of size >= 2,
	// in chooser priority order (more threads first, then lower mask).
	entries []ITID
}

// NewSplitNetwork builds the network for n hardware threads.
func NewSplitNetwork(n int) *SplitNetwork {
	sn := &SplitNetwork{threads: n}
	// Enumerate subsets by descending popcount (chooser priority).
	for size := n; size >= 2; size-- {
		for m := ITID(1); m < 1<<n; m++ {
			if m.Count() == size {
				sn.entries = append(sn.entries, m)
			}
		}
	}
	return sn
}

// NumEntries returns the candidate-combination count (6 pair + 4 triple +
// 1 quad = 11 for four threads — the 11 bits per register of Table 3).
func (sn *SplitNetwork) NumEntries() int { return len(sn.entries) }

// PairBits is the per-instruction readout the splitter consumes: bit(i,j)
// must be 1 iff threads i and j have identical mappings for *every* source
// register of the instruction (the AND across source-register entries).
type PairBits func(i, j int) bool

// Evaluate runs the filter/chooser cascade and returns the minimal ITID
// set for an instruction fetched with itid.
func (sn *SplitNetwork) Evaluate(shared PairBits, itid ITID) []ITID {
	// Step 1: evaluate every entry's AND-of-pairs once.
	entryBit := make([]bool, len(sn.entries))
	for e, eid := range sn.entries {
		ok := true
		for a := eid; a != 0 && ok; a &= a - 1 {
			for b := a & (a - 1); b != 0; b &= b - 1 {
				if !shared(a.First(), b.First()) {
					ok = false
					break
				}
			}
		}
		entryBit[e] = ok
	}

	var out []ITID
	remaining := itid
	// Up to three chooser rounds; whatever remains is singletons.
	for round := 0; round < sn.threads-1 && remaining.Count() >= 2; round++ {
		chosen := ITID(0)
		for e, eid := range sn.entries {
			// Filter: the entry must be a possible outcome of the
			// remaining ITID.
			if !entryBit[e] || eid&remaining != eid {
				continue
			}
			chosen = eid // entries are in priority order
			break
		}
		if chosen == 0 {
			break
		}
		out = append(out, chosen)
		remaining &^= chosen
	}
	for t := 0; t < sn.threads; t++ {
		if remaining.Has(t) {
			out = append(out, ITIDOf(t))
		}
	}
	return out
}

// GateEstimate returns a rough two-input-gate count for the network,
// the supplementary structural figure behind Table 3's synthesized-area
// row: per source register, each entry ANDs its pair bits; the filter is
// one AND per entry; the chooser is a priority encoder; the cascade
// replicates filter+chooser three times.
func (sn *SplitNetwork) GateEstimate(sources int) int {
	pairANDs := 0
	for _, eid := range sn.entries {
		k := eid.Count()
		pairANDs += k*(k-1)/2 - 1 // AND tree over the entry's pair bits
	}
	perSource := pairANDs + len(sn.entries) // + source-combining ANDs
	filter := len(sn.entries)               // mask against the ITID
	chooser := 2 * len(sn.entries)          // priority encoder ~2 gates/entry
	cascade := sn.threads - 1
	return sources*perSource + cascade*(filter+chooser)
}
