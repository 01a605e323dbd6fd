package core

import (
	"testing"
	"testing/quick"
)

// members collects m's threads with the bit-iteration idiom the core uses
// at every ITID site.
func members(m ITID) []int {
	var out []int
	for b := m; b != 0; b &= b - 1 {
		out = append(out, b.First())
	}
	return out
}

func TestITIDBasics(t *testing.T) {
	m := ITIDOf(1).With(3)
	if !m.Has(1) || !m.Has(3) || m.Has(0) || m.Has(2) {
		t.Errorf("membership wrong for %v", m)
	}
	if m.Count() != 2 {
		t.Errorf("count = %d", m.Count())
	}
	if m.First() != 1 {
		t.Errorf("first = %d", m.First())
	}
	got := members(m)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("threads = %v", got)
	}
	if m.Without(1) != ITIDOf(3) {
		t.Errorf("without = %v", m.Without(1))
	}
	if ITID(0).First() != -1 {
		t.Error("empty first")
	}
}

func TestITIDString(t *testing.T) {
	if s := ITIDOf(0).With(1).With(2).With(3).String(); s != "1111" {
		t.Errorf("full = %q", s)
	}
	if s := ITIDOf(1).With(2).String(); s != "0110" {
		t.Errorf("0110 = %q", s)
	}
	if s := ITID(0).String(); s != "0000" {
		t.Errorf("empty = %q", s)
	}
}

func TestITIDProperties(t *testing.T) {
	prop := func(raw uint8) bool {
		m := ITID(raw & 0xf)
		// Count equals the number of members iterated.
		if len(members(m)) != m.Count() {
			return false
		}
		// With/Without round trip.
		for _, th := range members(m) {
			if m.Without(th).With(th) != m {
				return false
			}
		}
		// First is the minimum member, and iteration visits exactly the
		// members, in ascending order.
		if m != 0 && members(m)[0] != m.First() {
			return false
		}
		prev := -1
		for _, th := range members(m) {
			if !m.Has(th) || th <= prev {
				return false
			}
			prev = th
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
