package obs

import (
	"bytes"
	"reflect"
	"testing"
)

func TestEventKindTextRoundTrip(t *testing.T) {
	for k := EventKind(0); int(k) < len(eventKindNames); k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if back != k {
			t.Errorf("%s round-tripped to %s", k, back)
		}
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown kind accepted")
	}
	if s := EventKind(250).String(); s == "" {
		t.Error("out-of-range kind produced empty string")
	}
}

func TestPackModeMix(t *testing.T) {
	cases := [][3]int{{0, 0, 0}, {1, 0, 0}, {2, 1, 1}, {4, 0, 3}, {65535, 65535, 65535}}
	for _, c := range cases {
		m, d, cu := UnpackModeMix(PackModeMix(c[0], c[1], c[2]))
		if m != c[0] || d != c[1] || cu != c[2] {
			t.Errorf("pack/unpack %v = %d,%d,%d", c, m, d, cu)
		}
	}
}

func TestStallCauseStrings(t *testing.T) {
	for c := StallNone; c <= StallLSQ; c++ {
		if c.String() == "" {
			t.Errorf("cause %d has no name", c)
		}
	}
}

func TestMultiFansOut(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live sinks is not nil")
	}
	a, b := NewCollector(), NewCollector()
	if Multi(nil, a) != Recorder(a) {
		t.Error("Multi of one live sink does not return it")
	}
	m := Multi(a, nil, b)
	m.Event(Event{TS: 1, Kind: EvDiverge})
	m.Sample(Sample{TS: 2})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*Collector{a, b} {
		if len(c.Events) != 1 || len(c.Samples) != 1 {
			t.Errorf("sink %d: %d events %d samples", i, len(c.Events), len(c.Samples))
		}
	}
}

func TestCollectorDrain(t *testing.T) {
	c := NewCollector()
	c.Event(Event{TS: 1})
	c.Event(Event{TS: 2})
	if got := c.Drain(); len(got) != 2 {
		t.Fatalf("drained %d events", len(got))
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d events", len(got))
	}
	c.Event(Event{TS: 3})
	if got := c.Drain(); len(got) != 1 || got[0].TS != 3 {
		t.Fatalf("drain after refill: %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	meta := map[string]string{"app": "equake", "version": "test"}
	s := NewJSONL(&buf, meta)
	events := []Event{
		{TS: 10, Kind: EvDiverge, Track: 0, PC: 0x104c, Arg: 2},
		{TS: 20, Kind: EvStall, Track: TrackMachine, Arg: uint64(StallROB)},
		{TS: 30, Kind: EvRollback, Track: 1, PC: 0x1090, Arg: 1, Cost: 8},
		{TS: 40, Kind: EvRemerge, Track: 0, PC: 0x10a0, Arg: 2, Site: 0x104c, Cost: 3},
	}
	samples := []Sample{{TS: 100, Committed: 400, ROB: 12, GroupsMerge: 1}}
	for _, e := range events {
		s.Event(e)
		// Attribution kinds are dropped from the log.
		s.Event(Event{TS: e.TS, Kind: EvCommit, PC: 0x1000})
		s.Event(Event{TS: e.TS, Kind: EvCycle, Track: TrackMachine})
	}
	for _, sm := range samples {
		s.Sample(sm)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1+len(events)+len(samples) {
		t.Fatalf("decoded %d lines", len(lines))
	}
	if lines[0].Type != "meta" || !reflect.DeepEqual(lines[0].Meta, meta) {
		t.Errorf("meta line: %+v", lines[0])
	}
	for i, e := range events {
		l := lines[1+i]
		if l.Type != "event" || l.Event == nil || !reflect.DeepEqual(*l.Event, e) {
			t.Errorf("event %d: %+v", i, l)
		}
	}
	last := lines[len(lines)-1]
	if last.Type != "sample" || last.Sample == nil || !reflect.DeepEqual(*last.Sample, samples[0]) {
		t.Errorf("sample line: %+v", last)
	}
}

func TestJSONLDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSONL(bytes.NewBufferString("{\"type\":\"event\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}
