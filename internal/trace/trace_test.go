package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mmt/internal/asm"
	"mmt/internal/prog"
)

func rec(pc uint64, taken bool, sig uint64) Record {
	return Record{PC: pc, Taken: taken, Sig: sig}
}

func TestAlignIdenticalTraces(t *testing.T) {
	var a []Record
	for i := 0; i < 100; i++ {
		a = append(a, rec(uint64(i*4), false, uint64(i)))
	}
	p := Align(a, a, DefaultAlignConfig())
	if p.ExecuteIdentical != 200 || p.FetchIdentical != 0 || p.NotIdentical != 0 {
		t.Errorf("profile %+v", p)
	}
	if p.Divergences != 0 {
		t.Errorf("divergences = %d", p.Divergences)
	}
}

func TestAlignFetchIdenticalOnly(t *testing.T) {
	var a, b []Record
	for i := 0; i < 50; i++ {
		a = append(a, rec(uint64(i*4), false, 1))
		b = append(b, rec(uint64(i*4), false, 2)) // same PCs, different values
	}
	p := Align(a, b, DefaultAlignConfig())
	if p.FetchIdentical != 100 || p.ExecuteIdentical != 0 {
		t.Errorf("profile %+v", p)
	}
}

func TestAlignDivergenceAndReconverge(t *testing.T) {
	// Common prefix, divergent middles of different lengths, common tail.
	common := func(base uint64, n int) []Record {
		var out []Record
		for i := 0; i < n; i++ {
			out = append(out, rec(base+uint64(i*4), false, base+uint64(i)))
		}
		return out
	}
	divergent := func(base uint64, n, taken int) []Record {
		var out []Record
		for i := 0; i < n; i++ {
			out = append(out, rec(base+uint64(i*4), i < taken, 0))
		}
		return out
	}
	a := append(append(common(0, 10), divergent(0x1000, 5, 3)...), common(0x9000, 10)...)
	b := append(append(common(0, 10), divergent(0x2000, 8, 5)...), common(0x9000, 10)...)
	p := Align(a, b, DefaultAlignConfig())
	if p.Divergences != 1 {
		t.Fatalf("divergences = %d", p.Divergences)
	}
	if p.ExecuteIdentical != 40 {
		t.Errorf("exec-identical = %d, want 40", p.ExecuteIdentical)
	}
	if p.NotIdentical != 13 {
		t.Errorf("not-identical = %d, want 13", p.NotIdentical)
	}
	// Length difference = |3-5| = 2 taken branches -> first bucket.
	if p.LenDiff[0] != 1 {
		t.Errorf("len-diff histogram %v", p.LenDiff)
	}
}

func TestAlignNoReconvergence(t *testing.T) {
	var a, b []Record
	for i := 0; i < 30; i++ {
		a = append(a, rec(uint64(0x1000+i*4), false, 0))
		b = append(b, rec(uint64(0x8000+i*4), false, 0))
	}
	p := Align(a, b, DefaultAlignConfig())
	if p.NotIdentical != 60 || p.ExecuteIdentical != 0 {
		t.Errorf("profile %+v", p)
	}
}

func TestAlignShiftedTraces(t *testing.T) {
	// b runs 6 extra setup instructions, then both execute the same code:
	// reconvergence with di=0.
	var tail []Record
	for i := 0; i < 40; i++ {
		tail = append(tail, rec(uint64(0x4000+i*4), i%5 == 0, uint64(i)))
	}
	var setup []Record
	for i := 0; i < 6; i++ {
		setup = append(setup, rec(uint64(0x100+i*4), true, 0))
	}
	a := tail
	b := append(setup, tail...)
	p := Align(a, b, DefaultAlignConfig())
	if p.Divergences != 1 {
		t.Fatalf("divergences = %d (profile %+v)", p.Divergences, p)
	}
	if p.ExecuteIdentical != 80 {
		t.Errorf("exec-identical = %d", p.ExecuteIdentical)
	}
}

func TestDistBucketing(t *testing.T) {
	p := &Profile{}
	p.recordDiff(0)
	p.recordDiff(16)
	p.recordDiff(17)
	p.recordDiff(512)
	p.recordDiff(513)
	want := [7]uint64{2, 1, 0, 0, 0, 1, 1}
	if p.LenDiff != want {
		t.Errorf("histogram %v, want %v", p.LenDiff, want)
	}
	if got := p.DiffWithin(16); got != 0.4 {
		t.Errorf("within 16 = %f", got)
	}
	if got := p.DiffWithin(512); got != 0.8 {
		t.Errorf("within 512 = %f", got)
	}
}

func TestCaptureSignatures(t *testing.T) {
	src := `
        li   r4, input
        ld   r5, 0(r4)
        addi r6, r5, 1
        halt
        .data
input:  .word 0
`
	build := func(val uint64) []Record {
		p := asm.MustAssemble("t", src)
		sys, err := prog.NewSystem(p, prog.ModeME, 1, func(ctx int, mem *prog.Memory) {
			mem.Write64(prog.DataBase, val)
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Capture(sys.Contexts[0], 100)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := build(7)
	b := build(7)
	c := build(8)
	if len(a) != 4 {
		t.Fatalf("trace length %d", len(a))
	}
	for i := range a {
		if a[i].Sig != b[i].Sig {
			t.Errorf("identical runs: sig differs at %d", i)
		}
	}
	// The load (index 1) and its consumer (index 2) must differ in c.
	if a[1].Sig == c[1].Sig {
		t.Error("different load value, same signature")
	}
	if a[2].Sig == c[2].Sig {
		t.Error("different operand value, same signature")
	}
	// The setup li (index 0) is identical.
	if a[0].Sig != c[0].Sig {
		t.Error("identical instruction got different signature")
	}
}

func TestCaptureRespectsMaxInsts(t *testing.T) {
	src := "loop: j loop\n"
	p := asm.MustAssemble("spin", src)
	sys, _ := prog.NewSystem(p, prog.ModeME, 1, nil)
	tr, err := Capture(sys.Contexts[0], 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 25 {
		t.Errorf("trace length %d", len(tr))
	}
	for _, r := range tr {
		if !r.Taken {
			t.Error("jump not marked taken")
		}
	}
}

func TestProfileSystem(t *testing.T) {
	src := `
        li   r4, input
        ld   r5, 0(r4)
        li   r6, 20
loop:   add  r7, r5, r6
        addi r6, r6, -1
        bnez r6, loop
        halt
        .data
input:  .word 1
`
	p := asm.MustAssemble("ps", src)
	sys, err := prog.NewSystem(p, prog.ModeME, 2, func(ctx int, mem *prog.Memory) {
		mem.Write64(prog.DataBase, uint64(ctx))
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileSystem(sys, 100000, DefaultAlignConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same control flow, partially different values: everything is at
	// least fetch-identical, some of it execute-identical.
	_, _, ni := prof.Fractions()
	if ni != 0 {
		t.Errorf("not-identical fraction = %f", ni)
	}
	if prof.FetchIdentical == 0 || prof.ExecuteIdentical == 0 {
		t.Errorf("profile %+v", prof)
	}
	// One context is required to be at least two.
	single, _ := prog.NewSystem(p, prog.ModeME, 1, nil)
	if _, err := ProfileSystem(single, 100, DefaultAlignConfig()); err == nil {
		t.Error("single-context profiling accepted")
	}
	// A cap below zero profiles nothing.
	sys, _ = prog.NewSystem(p, prog.ModeME, 2, nil)
	if prof, err := ProfileSystem(sys, -1, DefaultAlignConfig()); err != nil || prof.Total() != 0 {
		t.Errorf("cap -1: profile %+v, err %v", prof, err)
	}
}

// TestAlignConstructedProperty builds traces from known common/divergent
// segment structures and verifies the aligner recovers the exact
// classification counts.
func TestAlignConstructedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b []Record
		var wantExec, wantFetch, wantNot uint64
		var wantDivs uint64
		pcBase := uint64(0x1000)
		segs := 1 + r.Intn(6)
		for s := 0; s < segs; s++ {
			// Common segment with unique PCs.
			n := 4 + r.Intn(20)
			for i := 0; i < n; i++ {
				pc := pcBase
				pcBase += 4
				sig := uint64(r.Intn(4))
				sigB := sig
				if r.Intn(3) == 0 { // fetch-identical only
					sigB = sig + 100
					wantFetch += 2
				} else {
					wantExec += 2
				}
				a = append(a, Record{PC: pc, Sig: sig})
				b = append(b, Record{PC: pc, Sig: sigB})
			}
			if s == segs-1 {
				break
			}
			// Divergent segment: disjoint unique PC ranges, possibly
			// empty on one side.
			da := r.Intn(6)
			db := r.Intn(6)
			if da == 0 && db == 0 {
				da = 1
			}
			for i := 0; i < da; i++ {
				a = append(a, Record{PC: 0x100000 + uint64(s)*0x1000 + uint64(i)*4, Taken: true})
			}
			for i := 0; i < db; i++ {
				b = append(b, Record{PC: 0x200000 + uint64(s)*0x1000 + uint64(i)*4, Taken: true})
			}
			wantNot += uint64(da + db)
			wantDivs++
		}
		p := Align(a, b, DefaultAlignConfig())
		return p.ExecuteIdentical == wantExec &&
			p.FetchIdentical == wantFetch &&
			p.NotIdentical == wantNot &&
			p.Divergences == wantDivs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// alignRef is Align as first written, kept as the reference the indexed
// aligner must match: it rebuilds a PC index over b's window at every
// divergence.
func alignRef(a, b []Record, cfg AlignConfig) *Profile {
	p := &Profile{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].PC == b[j].PC {
			if a[i].Sig == b[j].Sig {
				p.ExecuteIdentical += 2
			} else {
				p.FetchIdentical += 2
			}
			i++
			j++
			continue
		}
		di, dj, ok := reconvergeRef(a[i:], b[j:], cfg)
		if !ok {
			p.NotIdentical += uint64(len(a) - i + len(b) - j)
			return p
		}
		p.Divergences++
		ta := takenIn(a[i : i+di])
		tb := takenIn(b[j : j+dj])
		diff := ta - tb
		if tb > ta {
			diff = tb - ta
		}
		p.recordDiff(diff)
		p.NotIdentical += uint64(di + dj)
		i += di
		j += dj
	}
	p.NotIdentical += uint64(len(a) - i + len(b) - j)
	return p
}

func reconvergeRef(a, b []Record, cfg AlignConfig) (int, int, bool) {
	wa, wb := cfg.Window, cfg.Window
	if wa > len(a) {
		wa = len(a)
	}
	if wb > len(b) {
		wb = len(b)
	}
	byPC := make(map[uint64][]int, wb)
	for j := 0; j < wb; j++ {
		byPC[b[j].PC] = append(byPC[b[j].PC], j)
	}
	bestDi, bestDj, best := 0, 0, -1
	for di := 0; di < wa; di++ {
		if best >= 0 && di >= best {
			break
		}
		for _, dj := range byPC[a[di].PC] {
			if best >= 0 && di+dj >= best {
				continue
			}
			if di == 0 && dj == 0 {
				continue
			}
			if runMatchesRef(a[di:], b[dj:], cfg.MinRun) {
				best, bestDi, bestDj = di+dj, di, dj
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return bestDi, bestDj, true
}

func runMatchesRef(a, b []Record, n int) bool {
	if len(a) < n || len(b) < n {
		n = min(len(a), len(b))
		if n == 0 {
			return false
		}
	}
	for k := 0; k < n; k++ {
		if a[k].PC != b[k].PC {
			return false
		}
	}
	return true
}

// TestAlignMatchesReference compares Align with alignRef on random trace
// pairs drawn from a few PCs, so that candidates tie, the window cuts the
// search short and runs reach the end of a trace (the short-tail rule).
func TestAlignMatchesReference(t *testing.T) {
	randTrace := func(r *rand.Rand, pcs, n int) []Record {
		out := make([]Record, n)
		for k := range out {
			out[k] = Record{PC: 0x1000 + 4*uint64(r.Intn(pcs)), Taken: r.Intn(2) == 0, Sig: uint64(r.Intn(3))}
		}
		return out
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pcs := 1 + r.Intn(12)
		a := randTrace(r, pcs, r.Intn(200))
		b := randTrace(r, pcs, r.Intn(200))
		if r.Intn(2) == 0 {
			tail := randTrace(r, pcs, 1+r.Intn(100))
			a = append(a, tail...)
			b = append(b, tail...)
		}
		cfg := AlignConfig{Window: 1 + r.Intn(64), MinRun: 1 + r.Intn(5)}
		if r.Intn(8) == 0 {
			cfg = DefaultAlignConfig()
		}
		got, want := Align(a, b, cfg), alignRef(a, b, cfg)
		if *got != *want {
			t.Logf("seed %d, %d PCs, %+v, len %d/%d: got %+v, want %+v", seed, pcs, cfg, len(a), len(b), *got, *want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAlignAllocsIndependentOfDivergences aligns two traces that diverge
// every ninth instruction among ten PCs: the aligner's allocations must
// not grow with the number of divergences.
func TestAlignAllocsIndependentOfDivergences(t *testing.T) {
	var a, b []Record
	for blk := 0; blk < 1200; blk++ {
		for pc := uint64(0); pc < 8; pc++ {
			a = append(a, rec(pc*4, pc == 7, 0))
			b = append(b, rec(pc*4, pc == 7, 0))
		}
		a = append(a, rec(0x100, false, 0))
		b = append(b, rec(0x200, true, 0))
	}
	var p *Profile
	allocs := testing.AllocsPerRun(5, func() { p = Align(a, b, DefaultAlignConfig()) })
	if p.Divergences < 1000 {
		t.Fatalf("fixture has %d divergences, want at least 1000", p.Divergences)
	}
	if allocs >= float64(p.Divergences) {
		t.Errorf("%.0f allocations for %d divergences", allocs, p.Divergences)
	}
}
