package cli

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDoctorEndToEnd boots a real fleet — mmtcached, two mmtserved nodes,
// mmtrouter — drives load through it, and proves the mmtdoctor acceptance
// scenario: one invocation produces a bundle holding every process's
// flight ring, metrics history and at least one raw CPU capture, with
// a triage report naming the slowest trace; the bundled flight rings stay
// renderable via -from-dump; and -watch holds or breaches thresholds with
// the right exit behavior.
func TestDoctorEndToEnd(t *testing.T) {
	var progress syncBuffer

	// Staggered profiler cadences: only one CPU profile can run per
	// process at a time, and distinct periods make the windows drift
	// apart so every daemon eventually lands captures.
	cachedAddr, cachedDone := startDaemon(t, "mmtcached", runCached,
		[]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir(),
			"-profile-every", "300ms", "-history-every", "100ms"}, &progress)
	addrA, doneA := startDaemon(t, "mmtserved A", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", t.TempDir(),
			"-remote-cache", "http://" + cachedAddr,
			"-profile-every", "370ms", "-history-every", "100ms"}, &progress)
	addrB, doneB := startDaemon(t, "mmtserved B", runServe,
		[]string{"-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", t.TempDir(),
			"-remote-cache", "http://" + cachedAddr,
			"-profile-every", "430ms", "-history-every", "100ms"}, &progress)
	routerAddr, routerDone := startDaemon(t, "mmtrouter", runRouter,
		[]string{"-addr", "127.0.0.1:0", "-probe-every", "100ms",
			"-backends", "http://" + addrA + ",http://" + addrB,
			"-profile-every", "490ms", "-history-every", "100ms"}, &progress)

	var loadOut bytes.Buffer
	if err := runLoad([]string{"-server", "http://" + routerAddr, "-n", "8", "-c", "4",
		"-dup", "0.5", "-seed", "7"}, &loadOut, io.Discard); err != nil {
		t.Fatalf("mmtload: %v\n%s", err, loadOut.String())
	}
	// Let every history sampler tick a few more times and the staggered
	// CPU windows land at least one capture somewhere.
	time.Sleep(700 * time.Millisecond)

	bundleDir := filepath.Join(t.TempDir(), "bundle")
	var out bytes.Buffer
	if err := runDoctor([]string{"-server", "http://" + routerAddr,
		"-sources", "http://" + cachedAddr, "-out", bundleDir}, &out, &progress); err != nil {
		t.Fatalf("mmtdoctor: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"== mmtdoctor triage ==", "slowest trace: load-7-", "mmttrace -trace"} {
		if !strings.Contains(report, want) {
			t.Errorf("triage missing %q:\n%s", want, report)
		}
	}

	// The bundle covers all four processes, each with its flight ring and
	// metrics history.
	nodes, err := os.ReadDir(filepath.Join(bundleDir, "nodes"))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("bundle nodes = %d, want 4 (have %v)", len(nodes), names(nodes))
	}
	var cpu, flights int
	for _, n := range nodes {
		nd := filepath.Join(bundleDir, "nodes", n.Name())
		for _, p := range []string{"flight.json", "metrics.json", "config.json"} {
			if _, err := os.Stat(filepath.Join(nd, p)); err != nil {
				t.Errorf("node %s missing %s", n.Name(), p)
			}
		}
		if _, err := os.Stat(filepath.Join(nd, "flight.json")); err == nil {
			flights++
		}
		caps, _ := filepath.Glob(filepath.Join(nd, "cpu-*.pprof"))
		cpu += len(caps)
	}
	if flights != 4 {
		t.Errorf("flight rings in bundle = %d, want 4", flights)
	}
	if cpu == 0 {
		t.Error("no node holds a CPU capture")
	}
	if _, err := os.Stat(filepath.Join(bundleDir, "cluster.json")); err != nil {
		t.Error("bundle missing cluster.json")
	}
	if ts, err := os.ReadDir(filepath.Join(bundleDir, "traces")); err != nil || len(ts) == 0 {
		t.Errorf("bundle has no stitched traces: %v", err)
	}

	// A bundled flight ring is a dump document: -from-dump renders it,
	// the same path an operator takes with a SIGQUIT'd node's file.
	out.Reset()
	if err := runDoctor([]string{"-from-dump",
		filepath.Join(bundleDir, "nodes", nodes[0].Name(), "flight.json")}, &out, io.Discard); err != nil {
		t.Fatalf("mmtdoctor -from-dump: %v", err)
	}
	for _, want := range []string{"flight dump:", "process start"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-from-dump output missing %q:\n%s", want, out.String())
		}
	}

	// Watch mode: generous thresholds hold (exit zero after one clean
	// round); an absurd p99 bound breaches and errors out.
	out.Reset()
	if err := runDoctor([]string{"-server", "http://" + routerAddr, "-watch",
		"-max-queue", "100000", "-rounds", "1"}, &out, io.Discard); err != nil {
		t.Errorf("clean watch round errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all thresholds held") {
		t.Errorf("watch output = %q", out.String())
	}
	out.Reset()
	if err := runDoctor([]string{"-server", "http://" + routerAddr, "-watch",
		"-max-job-p99", "1ns", "-rounds", "1"}, &out, io.Discard); err == nil {
		t.Errorf("breaching watch exited clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BREACH") {
		t.Errorf("breach output = %q", out.String())
	}
	if err := runDoctor([]string{"-watch"}, io.Discard, io.Discard); err == nil {
		t.Error("-watch without thresholds accepted")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{
		"mmtcached": cachedDone, "mmtserved A": doneA, "mmtserved B": doneB, "mmtrouter": routerDone,
	} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s exit: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", name)
		}
	}
}

func names(es []os.DirEntry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name()
	}
	return out
}

// TestDoctorRendersLegacyDump: a schema-1 dump from a build whose ring
// still held obs events and samples renders through -from-dump, with
// those retired entries shown as kind-?.
func TestDoctorRendersLegacyDump(t *testing.T) {
	var out bytes.Buffer
	dump := filepath.Join("..", "obs", "flight", "testdata", "legacy_v1.json")
	if err := runDoctor([]string{"-from-dump", dump}, &out, io.Discard); err != nil {
		t.Fatalf("mmtdoctor -from-dump: %v", err)
	}
	if n := strings.Count(out.String(), "kind-?"); n != 2 {
		t.Errorf("%d kind-? rows, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "runner.exec") {
		t.Errorf("legacy dump lost its span entry:\n%s", out.String())
	}
}
