package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmt/internal/workloads"
)

// TestRunCheckNegativeFixtures: each seeded-defect fixture must make
// mmtcheck exit non-zero and name the defect.
func TestRunCheckNegativeFixtures(t *testing.T) {
	cases := []struct {
		file string
		code string
	}{
		{"bad_branch_target.s", "branch-target"},
		{"bad_falls_off_end.s", "falls-off-end"},
		{"bad_unreachable.s", "unreachable"},
		{"bad_read_before_write.s", "read-before-write"},
		{"bad_store_to_text.s", "store-to-text"},
		{"bad_oob_access.s", "oob-access"},
		{"bad_dead_store.s", "dead-store"},
		{"bad_unbounded_loop.s", "unbounded-loop"},
		{"bad_div_zero.s", "div-by-zero"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			err := RunCheck([]string{"-src", filepath.Join("testdata", tc.file), "-report=false"}, &out)
			if err == nil {
				t.Fatalf("seeded defect accepted:\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.code) {
				t.Errorf("output does not name %s:\n%s", tc.code, out.String())
			}
		})
	}
}

// TestRunCheckAbsintFixturesFailOnError: the abstract-interpretation
// lints report their seeded defects at error severity, so they must trip
// even the strictest gate.
func TestRunCheckAbsintFixturesFailOnError(t *testing.T) {
	for _, file := range []string{"bad_oob_access.s", "bad_dead_store.s", "bad_unbounded_loop.s", "bad_div_zero.s"} {
		t.Run(file, func(t *testing.T) {
			var out bytes.Buffer
			err := RunCheck([]string{"-src", filepath.Join("testdata", file), "-report=false", "-fail-on", "error"}, &out)
			if err == nil {
				t.Fatalf("seeded defect accepted at -fail-on error:\n%s", out.String())
			}
		})
	}
}

// TestPrecheckRefusesWhatCheckRefuses: the -precheck admission gate
// rejects exactly the fixtures mmtcheck -fail-on error rejects — the
// value lints included, not only the structural ones.
func TestPrecheckRefusesWhatCheckRefuses(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			checkErr := RunCheck([]string{"-src", file, "-report=false", "-fail-on", "error"}, io.Discard)
			gateErr := Precheck(workloads.App{Name: file, Source: string(src)})
			if (checkErr != nil) != (gateErr != nil) {
				t.Errorf("mmtcheck -fail-on error: %v; precheck: %v", checkErr, gateErr)
			}
			if gateErr != nil {
				rejected++
			}
		})
	}
	if rejected == 0 || rejected == len(files) {
		t.Errorf("precheck rejected %d of %d fixtures; the table needs both outcomes", rejected, len(files))
	}
}

func TestRunCheckCleanSource(t *testing.T) {
	var out bytes.Buffer
	if err := RunCheck([]string{"-src", filepath.Join("testdata", "clean.s")}, &out); err != nil {
		t.Fatalf("clean program rejected: %v\n%s", err, out.String())
	}
}

// TestRunCheckFailOnNever: findings are still printed, but the exit
// stays zero.
func TestRunCheckFailOnNever(t *testing.T) {
	var out bytes.Buffer
	err := RunCheck([]string{"-src", filepath.Join("testdata", "bad_unreachable.s"), "-fail-on", "never", "-report=false"}, &out)
	if err != nil {
		t.Fatalf("-fail-on never still failed: %v", err)
	}
	if !strings.Contains(out.String(), "unreachable") {
		t.Errorf("finding not printed:\n%s", out.String())
	}
}

// TestRunCheckAllWorkloads is the acceptance gate: every shipped
// workload passes the pre-flight check clean.
func TestRunCheckAllWorkloads(t *testing.T) {
	var out bytes.Buffer
	if err := RunCheck([]string{"-all", "-report=false"}, &out); err != nil {
		t.Fatalf("shipped workload failed mmtcheck: %v\n%s", err, out.String())
	}
}

func TestRunCheckJSON(t *testing.T) {
	var out bytes.Buffer
	err := RunCheck([]string{"-src", filepath.Join("testdata", "bad_falls_off_end.s"), "-format", "json"}, &out)
	if err == nil {
		t.Fatal("seeded defect accepted")
	}
	var results []CheckResult
	if jerr := json.Unmarshal(out.Bytes(), &results); jerr != nil {
		t.Fatalf("output is not JSON: %v\n%s", jerr, out.String())
	}
	if len(results) != 1 || len(results[0].Findings) == 0 {
		t.Fatalf("JSON carries no findings: %s", out.String())
	}
	if results[0].Findings[0].Code != "falls-off-end" {
		t.Errorf("finding code = %q, want falls-off-end", results[0].Findings[0].Code)
	}
}

// TestRunCheckAgainstProfile drives the full static-vs-dynamic loop
// through the CLI: simulate with attribution, then cross-validate the
// written profile. Loop-carried remerges are informational, so a seed
// workload must come back clean at the default warning threshold.
func TestRunCheckAgainstProfile(t *testing.T) {
	profPath := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	if err := RunSim([]string{"-app", "libsvm", "-preset", "MMT-FXR", "-threads", "2", "-profile-out", profPath}, &out); err != nil {
		t.Fatalf("sim: %v", err)
	}
	out.Reset()
	if err := RunCheck([]string{"-app", "libsvm", "-against-profile", profPath, "-report=false"}, &out); err != nil {
		t.Fatalf("cross-validation failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cross-validation") {
		t.Errorf("no cross-validation output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "spearman") {
		t.Errorf("no predicted-vs-observed correlation line:\n%s", out.String())
	}

	// The -min-correlation gate: an unattainable floor must fail the run
	// with a message naming the observed coefficient.
	out.Reset()
	err := RunCheck([]string{"-app", "libsvm", "-against-profile", profPath, "-report=false", "-min-correlation", "1.01"}, &out)
	if err == nil {
		t.Fatal("-min-correlation 1.01 accepted")
	}
	if !strings.Contains(err.Error(), "spearman") {
		t.Errorf("gate error does not name the correlation: %v", err)
	}
}

func TestRunCheckFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunCheck([]string{}, &out); err == nil {
		t.Error("no target accepted")
	}
	if err := RunCheck([]string{"-all", "-app", "libsvm"}, &out); err == nil {
		t.Error("-all with -app accepted")
	}
	if err := RunCheck([]string{"-app", "libsvm", "-format", "yaml"}, &out); err == nil {
		t.Error("bad format accepted")
	}
	if err := RunCheck([]string{"-app", "libsvm", "-fail-on", "fatal"}, &out); err == nil {
		t.Error("bad severity accepted")
	}
}
