package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mmt/internal/obs/span"
	"mmt/internal/prof"
	"mmt/internal/sim"
)

// syncBuffer guards a bytes.Buffer: the daemon's progress stream is
// written from several goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAndLoadEndToEnd boots the daemon on an ephemeral port, drives
// it with the load generator, then drains it with SIGTERM — the same
// lifecycle the CI smoke step runs against the built binaries.
func TestServeAndLoadEndToEnd(t *testing.T) {
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	var stdout, progress syncBuffer
	go func() {
		done <- runServe([]string{"-addr", "127.0.0.1:0", "-j", "2", "-queue", "8"},
			&stdout, &progress, func(a string) { addrc <- a })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	}

	var loadOut bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "6", "-c", "3",
		"-dup", "0.5", "-seed", "2"}, &loadOut, io.Discard); err != nil {
		t.Fatalf("mmtload: %v\n%s", err, loadOut.String())
	}
	out := loadOut.String()
	for _, want := range []string{"jobs/s", "latency: p50", "server:  simulated=", "0 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("load report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "simulated=0 ") {
		t.Errorf("load run simulated nothing:\n%s", out)
	}

	// A second identical run is served without new simulations: every
	// spec is now in the pool's memo. Its -events-out timeline holds one
	// load.job span per job, each naming where the outcome came from.
	events := filepath.Join(t.TempDir(), "load.jsonl")
	var warm bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "6", "-c", "3",
		"-dup", "0.5", "-seed", "2", "-events-out", events}, &warm, io.Discard); err != nil {
		t.Fatalf("warm mmtload: %v", err)
	}
	if !strings.Contains(warm.String(), "simulated=0 ") {
		t.Errorf("warm run re-simulated:\n%s", warm.String())
	}
	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 6 {
		t.Errorf("-events-out has %d lines, want 6 (one span per job)", len(lines))
	}
	traces := map[string]int{}
	for _, l := range lines {
		var r span.Record
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("span line %q: %v", l, err)
		}
		if r.Name != "load.job" || r.Attrs["source"] != "cache" || r.Attrs["dedup"] == "" {
			t.Errorf("warm job span: %+v", r)
		}
		traces[r.TraceID]++
	}
	// Deterministic per-job correlation ids: seed 2, positions 0..5, each
	// on exactly one span.
	for i := 0; i < 6; i++ {
		if id := fmt.Sprintf("load-2-%d", i); traces[id] != 1 {
			t.Errorf("trace id %s on %d spans, want 1 (%v)", id, traces[id], traces)
		}
	}

	// An attributed run uses distinct task keys (attribution is in the
	// key), so the server simulates afresh, embeds a profile in each
	// outcome, and the client merges them into one file.
	pfile := filepath.Join(t.TempDir(), "load-profile.json")
	var attr bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + addr, "-n", "4", "-c", "2",
		"-dup", "0", "-seed", "3", "-attribution", "-profile-out", pfile}, &attr, io.Discard); err != nil {
		t.Fatalf("attributed mmtload: %v\n%s", err, attr.String())
	}
	if !strings.Contains(attr.String(), "attribution: ") {
		t.Errorf("attributed run printed no CPI summary:\n%s", attr.String())
	}
	pb, err := os.ReadFile(pfile)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := prof.ParseProfile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Cycles == 0 {
		t.Error("merged load profile is empty")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if got := progress.String(); !strings.Contains(got, "drained, bye") {
		t.Errorf("progress missing drain farewell:\n%s", got)
	}
}

func TestServeVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := runServe([]string{"-version"}, &out, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mmtserved") {
		t.Errorf("version output = %q", out.String())
	}
	out.Reset()
	if err := runLoad([]string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mmtload") {
		t.Errorf("version output = %q", out.String())
	}
}

// TestLoadSpecsAreUnique checks that a duplicate-free stream has one task
// key per job: no knob value repeats the default machine's.
func TestLoadSpecsAreUnique(t *testing.T) {
	base := sim.TaskSpec{App: "libsvm", Config: &sim.ConfigOverride{MaxInsts: 20000}}
	keys := make(map[string]bool)
	for _, spec := range loadSpecs(18, 0, 5, base) {
		task, err := spec.Task()
		if err != nil {
			t.Fatal(err)
		}
		key, err := task.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	if len(keys) != 18 {
		t.Errorf("18 jobs at -dup 0 have %d distinct task keys, want 18", len(keys))
	}
}

func TestLoadRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runLoad([]string{"-n", "0"}, &out, io.Discard); err == nil {
		t.Error("-n 0 accepted")
	}
	if err := runLoad([]string{"-dup", "1.5"}, &out, io.Discard); err == nil {
		t.Error("-dup 1.5 accepted")
	}
}
