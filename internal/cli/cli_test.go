package cli

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"mmt/internal/sim"
)

func TestRunSimBasic(t *testing.T) {
	var out bytes.Buffer
	err := RunSim([]string{"-app", "libsvm", "-preset", "MMT-FXR", "-threads", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"libsvm / MMT-FXR / 2 threads", "cycles", "fetch modes", "energy per job"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSimList(t *testing.T) {
	var out bytes.Buffer
	if err := RunSim([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, app := range []string{"ammp", "canneal", "allreduce-mp"} {
		if !strings.Contains(s, app) {
			t.Errorf("list missing %s", app)
		}
	}
}

func TestRunSimDisasm(t *testing.T) {
	var out bytes.Buffer
	if err := RunSim([]string{"-app", "twolf", "-disasm"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "move:") || !strings.Contains(s, "mul") {
		t.Errorf("disassembly incomplete:\n%s", s)
	}
}

func TestRunSimErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunSim([]string{"-app", "nosuch"}, &out); err == nil {
		t.Error("unknown app accepted")
	}
	if err := RunSim([]string{"-app", "nosuch", "-disasm"}, &out); err == nil {
		t.Error("unknown app accepted for disasm")
	}
	if err := RunSim([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
	if err := RunSim([]string{"-app", "ammp", "-preset", "Bogus"}, &out); err == nil {
		t.Error("bad preset accepted")
	}
}

func TestRunSimOverrides(t *testing.T) {
	var out bytes.Buffer
	err := RunSim([]string{"-app", "libsvm", "-threads", "2", "-fhb", "8", "-fetchwidth", "4", "-lsports", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "committed insts") {
		t.Error("override run produced no stats")
	}
}

func TestRunProfileSingleApp(t *testing.T) {
	var out bytes.Buffer
	err := RunProfile([]string{"-app", "twolf", "-maxinsts", "120000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 1") || !strings.Contains(s, "Figure 2") {
		t.Errorf("profile output incomplete:\n%s", s)
	}
	if !strings.Contains(s, "twolf") {
		t.Error("app row missing")
	}
	if err := RunProfile([]string{"-app", "nosuch"}, &out); err == nil {
		t.Error("unknown app accepted")
	}
	// An uncapped profile used to print an all-zero Figure 1 and succeed.
	for _, n := range []string{"0", "-3"} {
		if err := RunProfile([]string{"-app", "libsvm", "-maxinsts", n}, &out); err == nil || !strings.Contains(err.Error(), "-maxinsts") {
			t.Errorf("-maxinsts %s: got %v, want an error naming -maxinsts", n, err)
		}
	}
}

func TestRunBenchSingleArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-only", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FHB CAM") {
		t.Errorf("table3 missing:\n%s", out.String())
	}
}

func TestRunBenchRejectsUnknownArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-only", "fig99"}, &out); err == nil {
		t.Error("unknown artifact accepted")
	}
}

func TestRunBenchWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/report.txt"
	var out bytes.Buffer
	if err := RunBench([]string{"-only", "table3", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, "Table 3") {
		t.Errorf("file content wrong: %q", data)
	}
}

func TestRunPipeTrace(t *testing.T) {
	var out bytes.Buffer
	err := RunPipe([]string{"-app", "twolf", "-threads", "2", "-cycles", "30", "-dump", "15"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "tracing cycles") || !strings.Contains(s, "totals:") {
		t.Errorf("trace output incomplete:\n%s", s)
	}
	// The -dump flag prints machine state.
	if !strings.Contains(s, "robOcc") {
		t.Errorf("dump missing:\n%s", s)
	}
	if err := RunPipe([]string{"-app", "nosuch"}, &out); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestArtifactsListMatchesBench(t *testing.T) {
	// Every listed artifact must run standalone on a trivial budget —
	// checked here only for the cheap ones; the expensive ones are
	// exercised by the bench suite.
	for _, a := range []string{"table3"} {
		var out bytes.Buffer
		if err := RunBench([]string{"-only", a}, &out); err != nil {
			t.Errorf("artifact %s: %v", a, err)
		}
	}
	if len(sim.Artifacts) != 18 {
		t.Errorf("artifact count = %d", len(sim.Artifacts))
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func TestRunBenchParallelDeterminism(t *testing.T) {
	// The acceptance bar for the runner: the fig5a report on stdout is
	// byte-identical whether one worker runs the batch or eight do.
	var serial, parallel bytes.Buffer
	if _, err := runBench([]string{"-only", "fig5a", "-j", "1"}, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := runBench([]string{"-only", "fig5a", "-j", "8"}, &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-j 1 and -j 8 reports differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial.String(), parallel.String())
	}
	if !strings.Contains(serial.String(), "geomean") {
		t.Errorf("fig5a output incomplete:\n%s", serial.String())
	}
}

func TestRunBenchWarmCacheRunsNothing(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-only", "sec63", "-cache-dir", dir, "-j", "2"}
	var cold, warm bytes.Buffer
	s1, err := runBench(args, &cold, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Jobs == 0 || s1.Executed != s1.Jobs || s1.CacheHits != 0 {
		t.Fatalf("cold summary = %+v", s1)
	}
	s2, err := runBench(args, &warm, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The warm run must execute zero simulations and serve everything
	// from the persistent cache — with the identical report.
	if s2.Executed != 0 || s2.CacheHits != s2.Jobs || s2.Jobs != s1.Jobs {
		t.Errorf("warm summary = %+v", s2)
	}
	if cold.String() != warm.String() {
		t.Error("cached report differs from fresh report")
	}
}

func TestRunBenchProgressOnSeparateStream(t *testing.T) {
	var out, progress bytes.Buffer
	s, err := runBench([]string{"-only", "fig5a", "-j", "2"}, &out, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs == 0 {
		t.Fatalf("no jobs scheduled: %+v", s)
	}
	if !strings.Contains(progress.String(), "runner:") {
		t.Errorf("summary missing from progress stream: %q", progress.String())
	}
	if strings.Contains(out.String(), "runner:") {
		t.Error("runner chatter leaked into the report stream")
	}
}

func TestRunSimEquOverride(t *testing.T) {
	var small, full bytes.Buffer
	if err := RunSim([]string{"-app", "twolf", "-equ", "MOVES=50"}, &small); err != nil {
		t.Fatal(err)
	}
	if err := RunSim([]string{"-app", "twolf"}, &full); err != nil {
		t.Fatal(err)
	}
	if small.String() == full.String() {
		t.Error("override changed nothing")
	}
	var out bytes.Buffer
	if err := RunSim([]string{"-app", "twolf", "-equ", "garbage"}, &out); err == nil {
		t.Error("bad -equ accepted")
	}
	if err := RunSim([]string{"-app", "twolf", "-equ", "MOVES=xyz"}, &out); err == nil {
		t.Error("bad -equ value accepted")
	}
	if err := RunSim([]string{"-app", "twolf", "-equ", "NOPE=5"}, &out); err == nil {
		t.Error("unknown constant accepted")
	}
}
