package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/obs"
)

// TestRunSimTraceCapture runs mmtsim with both trace outputs and checks
// that (a) the result on stdout is identical to an untraced run, (b) the
// Chrome trace is a valid JSON document with the expected structure, and
// (c) the JSONL log decodes and carries the run's metadata.
func TestRunSimTraceCapture(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	eventsFile := filepath.Join(dir, "events.jsonl")

	var traced bytes.Buffer
	err := RunSim([]string{"-app", "libsvm", "-threads", "2",
		"-trace-out", traceFile, "-events-out", eventsFile, "-sample-every", "100"}, &traced)
	if err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	if err := RunSim([]string{"-app", "libsvm", "-threads", "2"}, &plain); err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Errorf("tracing changed the result output:\ntraced: %s\nplain: %s", traced.String(), plain.String())
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace-out produced invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	if doc.OtherData["app"] != "libsvm" || doc.OtherData["version"] == "" {
		t.Errorf("trace metadata: %v", doc.OtherData)
	}

	f, err := os.Open(eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := obs.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("-events-out did not decode: %v", err)
	}
	if len(lines) < 2 || lines[0].Type != "meta" || lines[0].Meta["app"] != "libsvm" {
		t.Fatalf("JSONL log malformed: %d lines, first %+v", len(lines), lines[0])
	}
	var samples int
	for _, l := range lines {
		if l.Type == "sample" {
			samples++
		}
	}
	if samples == 0 {
		t.Error("no cycle samples despite -sample-every 100")
	}
}

func TestVersionFlags(t *testing.T) {
	for _, c := range commands {
		var out bytes.Buffer
		if err := c.run([]string{"-version"}, &out); err != nil {
			t.Fatalf("%s -version: %v", c.name, err)
		}
		if !strings.HasPrefix(out.String(), c.name+" ") || !strings.Contains(out.String(), "go1") {
			t.Errorf("%s -version output: %q", c.name, out.String())
		}
	}
}

// TestRunBenchWorkerTrace captures a runner timeline during a tiny bench
// TestRunBenchWorkerTrace: mmtbench -trace-out streams one complete event
// per executed job, each on its worker's track and carrying the task name
// and trace id.
func TestRunBenchWorkerTrace(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "runner.json")
	var out bytes.Buffer
	sum, err := runBench([]string{"-only", "sec63", "-j", "2", "-trace-out", traceFile}, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int64          `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("worker trace invalid: %v", err)
	}
	var execs int
	for _, r := range doc.TraceEvents {
		if r.Phase != "X" {
			continue
		}
		execs++
		if r.Name != "runner.exec" || r.Args["name"] == nil || r.Args["trace"] == nil {
			t.Errorf("job event: %+v", r)
		}
		if w := r.Args["worker"]; w != "0" && w != "1" || r.TID < 1 || r.TID > 2 {
			t.Errorf("job event off its worker track: %+v", r)
		}
	}
	if execs == 0 || execs != sum.Executed {
		t.Errorf("worker trace has %d job events, want one per executed job (%d)", execs, sum.Executed)
	}
}
