package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// feedChromeTrace writes a fixed, representative event stream into a sink.
func feedChromeTrace(s *ChromeTraceSink) error {
	s.Event(Event{TS: 5, Kind: EvFetchMode, Track: TrackMachine, Arg: PackModeMix(1, 0, 0)})
	s.Event(Event{TS: 40, Kind: EvDiverge, Track: 0, PC: 0x104c, Arg: 2})
	s.Event(Event{TS: 41, Kind: EvFetchMode, Track: TrackMachine, Arg: PackModeMix(0, 2, 0)})
	s.Event(Event{TS: 44, Kind: EvStall, Track: TrackMachine, Arg: uint64(StallROB)})
	s.Event(Event{TS: 60, Kind: EvCatchupStart, Track: 1, PC: 0x1080, Arg: 1})
	s.Event(Event{TS: 75, Kind: EvRollback, Track: 1, PC: 0x1090, Arg: 1, Cost: 8})
	s.Event(Event{TS: 75, Kind: EvSquash, Track: 1, PC: 0x1090, Arg: 14})
	// Attribution kinds never reach the timeline.
	s.Event(Event{TS: 76, Kind: EvCommit, Track: 0, PC: 0x1094, Arg: 1})
	s.Event(Event{TS: 76, Kind: EvLVIPHit, Track: 0, PC: 0x1090})
	s.Event(Event{TS: 76, Kind: EvCycle, Track: TrackMachine, Arg: 2})
	s.Event(Event{TS: 76, Kind: EvCatchupCycle, Track: 1, PC: 0x104c})
	s.Sample(Sample{TS: 100, Committed: 250, FetchQ: 4, ROB: 48, IQ: 12, LSQ: 8,
		GroupsMerge: 0, GroupsDetect: 1, GroupsCatchup: 1,
		FetchedMerge: 180, FetchedDetect: 60, FetchedCatchup: 20})
	s.Event(Event{TS: 130, Kind: EvRemerge, Track: 0, PC: 0x10a0, Arg: 2, Site: 0x104c, Cost: 3})
	s.Sample(Sample{TS: 200, Committed: 640, FetchQ: 2, ROB: 30, IQ: 6, LSQ: 4,
		GroupsMerge: 1, GroupsDetect: 0, GroupsCatchup: 0,
		FetchedMerge: 420, FetchedDetect: 60, FetchedCatchup: 20})
	s.Span(2, "runner.exec", 210, 900, map[string]any{"name": "ammp/Base/2T", "trace": "t-1"})
	return s.Close()
}

// TestChromeTraceGolden locks the exporter's exact output: the golden file
// is what we claim loads in Perfetto / chrome://tracing, so any change to
// the emitted records must be reviewed against a real viewer (regenerate
// with go test ./internal/obs -run Golden -update).
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTrace(&buf, ChromeTraceConfig{
		Process:     "mmtsim",
		TrackPrefix: "thread",
		Meta:        map[string]string{"app": "equake", "version": "test"},
	})
	if err := feedChromeTrace(s); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden (rerun with -update and re-check in Perfetto)\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed checks the structural properties a viewer
// needs, independent of the exact golden bytes.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTrace(&buf, ChromeTraceConfig{Meta: map[string]string{"k": "v"}})
	if err := feedChromeTrace(s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int64          `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || doc.OtherData["k"] != "v" {
		t.Errorf("document fields: unit=%q otherData=%v", doc.DisplayTimeUnit, doc.OtherData)
	}
	phases := map[string]int{}
	named := map[string]bool{}
	for _, r := range doc.TraceEvents {
		phases[r.Phase]++
		if r.Phase == "M" {
			named[r.Name] = true
		}
	}
	if phases["M"] == 0 || phases["C"] == 0 || phases["i"] == 0 || phases["X"] == 0 {
		t.Errorf("missing record phases: %v", phases)
	}
	if !named["process_name"] || !named["thread_name"] {
		t.Errorf("missing metadata records: %v", named)
	}
}

// TestChromeTraceEmpty: a sink closed with no events must still be a valid
// document.
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTrace(&buf, ChromeTraceConfig{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("empty trace invalid: %s", buf.Bytes())
	}
}

// TestChromeTraceNameTrack: an explicit track name must override the
// "<prefix> <n>" default and survive a subsequent event on that track.
func TestChromeTraceNameTrack(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTrace(&buf, ChromeTraceConfig{Process: "mmttrace"})
	s.NameTrack(0, "mmtrouter@127.0.0.1:8393")
	s.NameTrack(0, "shadowed") // second call for the same track: dropped
	s.Span(0, "router.submit", 10, 5, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range doc.TraceEvents {
		if r["name"] == "thread_name" {
			args := r["args"].(map[string]any)
			names = append(names, args["name"].(string))
		}
	}
	if len(names) != 1 || names[0] != "mmtrouter@127.0.0.1:8393" {
		t.Errorf("thread names = %v", names)
	}
}
