package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mmt/internal/asm"
	"mmt/internal/isa"
	"mmt/internal/prog"
)

func streamFixture(t *testing.T, maxInsts uint64) *stream {
	t.Helper()
	src := `
        li    r5, 100
loop:   addi  r5, r5, -1
        bnez  r5, loop
        halt
`
	p := asm.MustAssemble("s", src)
	sys, err := prog.NewSystem(p, prog.ModeME, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return new(stream).start(sys.Contexts[0], maxInsts)
}

func TestStreamSequentialConsumption(t *testing.T) {
	s := streamFixture(t, 0)
	var pcs []uint64
	for {
		r, ok := s.peek()
		if !ok {
			break
		}
		pcs = append(pcs, r.pc)
		s.advance()
	}
	// li + 100*(addi+bnez) + halt = 202 records
	if len(pcs) != 202 {
		t.Fatalf("consumed %d records", len(pcs))
	}
	if pcs[0] != prog.CodeBase {
		t.Errorf("first pc %#x", pcs[0])
	}
	if s.err != nil {
		t.Errorf("err %v", s.err)
	}
}

func TestStreamRewindReplaysIdenticalRecords(t *testing.T) {
	s := streamFixture(t, 0)
	var first []dynRec
	for i := 0; i < 50; i++ {
		r, ok := s.peek()
		if !ok {
			t.Fatal("stream ended early")
		}
		first = append(first, *r)
		s.advance()
	}
	s.rewindTo(10)
	for i := 10; i < 50; i++ {
		r, ok := s.peek()
		if !ok {
			t.Fatal("replay ended early")
		}
		if *r != first[i] {
			t.Fatalf("replay record %d differs: %+v vs %+v", i, *r, first[i])
		}
		s.advance()
	}
}

func TestStreamReleaseForbidsOldRewind(t *testing.T) {
	s := streamFixture(t, 0)
	for i := 0; i < 30; i++ {
		s.peek()
		s.advance()
	}
	s.release(20)
	defer func() {
		if recover() == nil {
			t.Error("rewind below released window did not panic")
		}
	}()
	s.rewindTo(10)
}

func TestStreamRewindForwardPanics(t *testing.T) {
	s := streamFixture(t, 0)
	s.peek()
	s.advance()
	defer func() {
		if recover() == nil {
			t.Error("forward rewind did not panic")
		}
	}()
	s.rewindTo(5)
}

func TestStreamReleaseUnfetchedPanics(t *testing.T) {
	s := streamFixture(t, 0)
	defer func() {
		if recover() == nil {
			t.Error("release of unfetched records did not panic")
		}
	}()
	s.release(5)
}

func TestStreamMaxInstsActsAsHalt(t *testing.T) {
	s := streamFixture(t, 25)
	n := 0
	for {
		_, ok := s.peek()
		if !ok {
			break
		}
		n++
		s.advance()
	}
	if n != 25 {
		t.Errorf("capped stream yielded %d records", n)
	}
	if !s.exhausted() {
		t.Error("capped stream not exhausted")
	}
	if _, ok := s.nextPC(); ok {
		t.Error("nextPC after cap")
	}
}

// TestStreamRandomWalkProperty drives a random mix of advance/rewind/
// release against a recorded reference.
func TestStreamRandomWalkProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := streamFixture(t, 0)
		ref := map[uint64]dynRec{}
		base := uint64(0)
		for step := 0; step < 300; step++ {
			switch r.Intn(5) {
			case 0, 1, 2: // advance
				rec, ok := s.peek()
				if !ok {
					continue
				}
				if old, seen := ref[rec.idx]; seen && old != *rec {
					return false
				}
				ref[rec.idx] = *rec
				s.advance()
			case 3: // rewind somewhere in [base, cursor]
				if s.cursor > base {
					target := base + uint64(r.Int63n(int64(s.cursor-base+1)))
					s.rewindTo(target)
				}
			case 4: // release up to cursor
				if s.cursor > base {
					target := base + uint64(r.Int63n(int64(s.cursor-base+1)))
					s.release(target)
					if target > base {
						base = target
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStreamRingWrapKeepsRecords buffers more records than the first ring
// holds, so it grows, releases records past the wrap point and refills
// their slots: reading any buffered record by its index must still return
// that record's own pc and effect, as a plain functional run produces
// them.
func TestStreamRingWrapKeepsRecords(t *testing.T) {
	p := asm.MustAssemble("wrap", `
        li    r5, 1000
loop:   addi  r5, r5, -1
        bnez  r5, loop
        halt
`)
	newCtx := func() *prog.Context {
		sys, err := prog.NewSystem(p, prog.ModeME, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Contexts[0]
	}
	type rec struct {
		pc  uint64
		eff isa.Effect
	}
	var want []rec
	for ref := newCtx(); len(want) < 1200; {
		r := rec{pc: ref.State.PC}
		if _, err := ref.Step(&r.eff); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	s := new(stream).start(newCtx(), 0)
	fetchTo := func(idx uint64) {
		for s.cursor < idx {
			if _, ok := s.peek(); !ok {
				t.Fatalf("stream ended at %d", s.cursor)
			}
			s.advance()
		}
	}
	check := func(stage string, ringLen int) {
		if len(s.recs) != ringLen {
			t.Fatalf("%s: ring has %d slots, want %d", stage, len(s.recs), ringLen)
		}
		for idx := s.base; idx < s.end; idx++ {
			if r := s.at(idx); r.idx != idx || r.pc != want[idx].pc || r.eff != want[idx].eff {
				t.Fatalf("%s: record %d reads idx %d pc %#x %+v, want pc %#x %+v",
					stage, idx, r.idx, r.pc, r.eff, want[idx].pc, want[idx].eff)
			}
		}
	}
	fetchTo(300)
	check("grown past 256", 512)
	s.release(280)
	fetchTo(280 + 512) // records 512.. wrap into the slots 0..279 freed
	check("wrapped", 512)
	fetchTo(280 + 513)
	check("grown while wrapped", 1024)
}
