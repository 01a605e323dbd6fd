package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmt/internal/core"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// TestRunSimOverrideRanges: -fhb, -fetchwidth and -lsports are the wire's
// configuration override, so mmtsim refuses what mmtserved refuses, with
// the same message.
func TestRunSimOverrideRanges(t *testing.T) {
	for _, c := range []struct {
		args []string
		ov   sim.ConfigOverride
	}{
		{[]string{"-fhb", "100000"}, sim.ConfigOverride{FHBSize: 100000}},
		{[]string{"-fhb", "-1"}, sim.ConfigOverride{FHBSize: -1}},
		{[]string{"-fetchwidth", "65"}, sim.ConfigOverride{FetchWidth: 65}},
		{[]string{"-lsports", "17"}, sim.ConfigOverride{LSPorts: 17}},
	} {
		err := RunSim(append([]string{"-app", "libsvm"}, c.args...), io.Discard)
		want := c.ov.Validate()
		if want == nil {
			t.Fatalf("%+v passes the wire's validation", c.ov)
		}
		if err == nil || err.Error() != want.Error() {
			t.Errorf("mmtsim %v: got %v, want %v", c.args, err, want)
		}
	}
}

// TestRunSimSpecDefaults: mmtsim names its simulation with a TaskSpec, so
// -threads 0 and an empty -preset take the spec's defaults.
func TestRunSimSpecDefaults(t *testing.T) {
	var out bytes.Buffer
	if err := RunSim([]string{"-app", "libsvm", "-threads", "0", "-preset", ""}, &out); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out.String(), "\n"); first != "libsvm / MMT-FXR / 2 threads" {
		t.Errorf("header = %q, want the 2-thread MMT-FXR run", first)
	}
}

// TestRunSimCacheKeyUnchanged: the override resolves to the configuration
// a hand-written Mutate hook produces, and keys hash the resolved
// configuration, so in-range runs keep the cache entries they always had.
func TestRunSimCacheKeyUnchanged(t *testing.T) {
	dir := t.TempDir()
	if err := RunSim([]string{"-app", "libsvm", "-fhb", "64", "-lsports", "4", "-cache-dir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	app, _ := workloads.ByName("libsvm")
	key, err := sim.Task{App: app, Preset: sim.PresetMMTFXR, Threads: 2, Mutate: func(c *core.Config) {
		c.FHBSize = 64
		c.LSPorts = 4
		c.Mem.MSHRs = 16
	}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Errorf("no cache entry under the hook's key: %v", err)
	}
}

// TestRunSimTracedTimeout: traced runs go through the runner, so -timeout
// bounds them too, and the sinks still finalize into a loadable trace.
func TestRunSimTracedTimeout(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	err := RunSim([]string{"-app", "libsvm", "-trace-out", traceFile, "-timeout", "1ns"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("got %v, want a timeout", err)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Errorf("timed-out trace is not a JSON document (%d bytes)", len(raw))
	}
}

// TestRunSimUninstallsSignalDump: every run installs a SIGQUIT flight
// dump handler and must uninstall it on return, or each run leaves a
// goroutine behind, and a SIGQUIT would dump every stale ring.
func TestRunSimUninstallsSignalDump(t *testing.T) {
	args := []string{"-app", "libsvm", "-flight-dump-dir", t.TempDir()}
	// The first run starts os/signal's process-wide watcher, which stays.
	if err := RunSim(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if err := RunSim(args, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines went from %d to %d over five runs", before, n)
	}
}
