package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/prof"
)

// TestRunSimProfileOut is the end-to-end profiling path: one documented
// command produces the per-PC table on stdout and a parseable profile
// JSON on disk, and the cache round trip preserves the profile.
func TestRunSimProfileOut(t *testing.T) {
	dir := t.TempDir()
	pfile := filepath.Join(dir, "profile.json")
	ofile := filepath.Join(dir, "outcome.json")
	var out bytes.Buffer
	err := RunSim([]string{"-app", "twolf", "-threads", "2",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-profile-out", pfile, "-profile-top", "5", "-out", ofile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"attribution profile (schema 2)", "CPI stack", "base", "top 5 sites", "pc"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}

	b, err := os.ReadFile(pfile)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.ParseProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles == 0 || len(p.Sites) == 0 {
		t.Errorf("empty profile: %d cycles, %d sites", p.Cycles, len(p.Sites))
	}

	// Warm path: the second run serves the attributed outcome from the
	// persistent cache, profile included.
	var warm bytes.Buffer
	pfile2 := filepath.Join(dir, "profile2.json")
	err = RunSim([]string{"-app", "twolf", "-threads", "2",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-profile-out", pfile2, "-profile-top", "5"}, &warm)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(pfile2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("cached profile differs from the simulated one")
	}
}

// TestRunProfileFromRun: mmtprofile renders and diffs profile files, and
// accepts an outcome file with an embedded profile.
func TestRunProfileFromRun(t *testing.T) {
	dir := t.TempDir()
	pfile := filepath.Join(dir, "profile.json")
	ofile := filepath.Join(dir, "outcome.json")
	var sink bytes.Buffer
	err := RunSim([]string{"-app", "libsvm", "-threads", "2",
		"-profile-out", pfile, "-out", ofile}, &sink)
	if err != nil {
		t.Fatal(err)
	}

	var report bytes.Buffer
	if err := RunProfile([]string{"-from-run", pfile, "-top", "3"}, &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "attribution profile (schema 2)") {
		t.Errorf("render failed:\n%s", report.String())
	}

	// The -out outcome embeds the same profile; -from-run accepts either.
	var fromOutcome bytes.Buffer
	if err := RunProfile([]string{"-from-run", ofile, "-top", "3"}, &fromOutcome); err != nil {
		t.Fatal(err)
	}
	if fromOutcome.String() != report.String() {
		t.Error("outcome-embedded profile rendered differently from the bare profile")
	}

	var diff bytes.Buffer
	if err := RunProfile([]string{"-from-run", pfile, "-diff", pfile, "-top", "3"}, &diff); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff.String(), "profile diff:") || !strings.Contains(diff.String(), "+0.0%") {
		t.Errorf("self-diff wrong:\n%s", diff.String())
	}

	if err := RunProfile([]string{"-diff", pfile}, &sink); err == nil {
		t.Error("-diff without -from-run accepted")
	}
	if err := RunProfile([]string{"-from-run", filepath.Join(dir, "nope.json")}, &sink); err == nil {
		t.Error("missing profile file accepted")
	}
}

// TestRunBenchJSONAndCompare: -bench-json emits the performance artifact
// (auto-named in a directory), and -bench-compare diffs two of them.
func TestRunBenchJSONAndCompare(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := runBench([]string{"-only", "fig5a", "-j", "4", "-bench-json", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_1.json")
	f, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != BenchSchema || len(f.Experiments) == 0 {
		t.Fatalf("bench file: schema %d, %d experiments", f.Schema, len(f.Experiments))
	}
	for _, e := range f.Experiments {
		if e.Name == "" || e.Key == "" || e.Cycles == 0 || e.IPC <= 0 {
			t.Errorf("incomplete entry: %+v", e)
		}
		if e.CacheHitRatio <= 0 || e.CacheHitRatio > 1 {
			t.Errorf("cache hit ratio %f out of range for %s", e.CacheHitRatio, e.Name)
		}
	}

	var cmp bytes.Buffer
	if _, err := runBench([]string{"-bench-compare", path + "," + path}, &cmp, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := cmp.String()
	if !strings.Contains(s, "bench compare:") || !strings.Contains(s, "+0.0%") ||
		!strings.Contains(s, f.Experiments[0].Name) {
		t.Errorf("compare output wrong:\n%s", s)
	}

	var sink bytes.Buffer
	if _, err := runBench([]string{"-bench-compare", path}, &sink, io.Discard); err == nil {
		t.Error("-bench-compare without two files accepted")
	}
	if err := BenchCompare(&sink, path, filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing compare file accepted")
	}
}

// TestFlagValidation: nonsense operational flags fail fast with a clear
// message instead of surprising behavior downstream.
func TestFlagValidation(t *testing.T) {
	var sink bytes.Buffer
	if err := RunSim([]string{"-app", "libsvm", "-timeout", "-1s"}, &sink); err == nil ||
		!strings.Contains(err.Error(), "-timeout") {
		t.Errorf("mmtsim negative timeout: %v", err)
	}
	if _, err := runBench([]string{"-only", "table3", "-timeout", "-1s"}, &sink, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-timeout") {
		t.Errorf("mmtbench negative timeout: %v", err)
	}
	if _, err := runBench([]string{"-only", "table3", "-retries", "-2"}, &sink, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-retries") {
		t.Errorf("mmtbench negative retries: %v", err)
	}
	if err := runServe([]string{"-retries", "-1"}, &sink, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "-retries") {
		t.Errorf("mmtserved negative retries: %v", err)
	}
	if err := runServe([]string{"-timeout", "-5s"}, &sink, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "-timeout") {
		t.Errorf("mmtserved negative timeout: %v", err)
	}
	if err := runLoad([]string{"-retries", "-3"}, &sink, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-retries") {
		t.Errorf("mmtload negative retries: %v", err)
	}
	if err := runLoad([]string{"-profile-out", "p.json"}, &sink, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-attribution") {
		t.Errorf("mmtload profile-out without attribution: %v", err)
	}
}

// TestRunBenchProfileOutNeedsTimingRuns: -profile-out on an artifact set
// with no timing simulations is an error, not an empty file.
func TestRunBenchProfileOutNeedsTimingRuns(t *testing.T) {
	dir := t.TempDir()
	var sink bytes.Buffer
	_, err := runBench([]string{"-only", "table3", "-profile-out", filepath.Join(dir, "p.json")}, &sink, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no attributed timing experiment") {
		t.Errorf("bench profile without timing runs: %v", err)
	}
}

// TestBenchCompareGate: the cycle-regression gate fails only when a
// matched experiment's cycles grow beyond the threshold, and the CLI
// rejects a gate without a comparison.
func TestBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cycles uint64) string {
		f := BenchFile{Schema: BenchSchema, Experiments: []BenchEntry{
			{Name: "libsvm/Base/2T", Key: "k1", Cycles: cycles, IPC: 2, CacheHitRatio: 0.9},
			{Name: "twolf/Base/2T", Key: "k2", Cycles: 1000, IPC: 2, CacheHitRatio: 0.9},
		}}
		path := filepath.Join(dir, name)
		if err := writeBenchJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000)
	slower := write("slower.json", 1080) // +8%
	faster := write("faster.json", 900)

	var out bytes.Buffer
	if err := BenchCompareGate(&out, base, slower, 5); err == nil {
		t.Error("8% cycle regression passed a 5% gate")
	} else if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("gate failure not reported:\n%s", out.String())
	}
	out.Reset()
	if err := BenchCompareGate(&out, base, slower, 10); err != nil {
		t.Errorf("8%% regression failed a 10%% gate: %v", err)
	}
	if err := BenchCompareGate(&out, base, faster, 5); err != nil {
		t.Errorf("improvement failed the gate: %v", err)
	}
	// Report-only mode never fails.
	if err := BenchCompareGate(&out, base, slower, 0); err != nil {
		t.Errorf("report-only compare failed: %v", err)
	}

	var sink bytes.Buffer
	if _, err := runBench([]string{"-bench-compare", base + "," + slower, "-bench-fail-over", "5"}, &sink, io.Discard); err == nil {
		t.Error("CLI gate passed a regression")
	}
	if _, err := runBench([]string{"-bench-fail-over", "5"}, &sink, io.Discard); err == nil {
		t.Error("-bench-fail-over without -bench-compare accepted")
	}
	if _, err := runBench([]string{"-bench-compare", base + "," + slower, "-bench-fail-over", "-1"}, &sink, io.Discard); err == nil {
		t.Error("negative -bench-fail-over accepted")
	}
}
