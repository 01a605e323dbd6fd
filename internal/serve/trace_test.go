package serve

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mmt/internal/obs/span"
	"mmt/internal/runner"
)

// execTraces returns the trace id of every runner.exec span the tracer
// recorded, one entry per span.
func execTraces(tr *span.Tracer) []string {
	var out []string
	for _, r := range tr.Records("") {
		if r.Name == "runner.exec" {
			out = append(out, r.TraceID)
		}
	}
	return out
}

// TestTraceIDMintingAndEcho: the server echoes a client-chosen
// correlation id, mints one from the job id otherwise, and rejects ids
// that would corrupt logs.
func TestTraceIDMintingAndEcho(t *testing.T) {
	_, hs := startServer(t, Options{Runner: runner.Options{Workers: 1}})

	st, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000), TraceID: "exp-42"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if st.TraceID != "exp-42" {
		t.Errorf("client trace id not echoed: %q", st.TraceID)
	}
	if done := waitDone(t, hs.URL, st.ID); done.TraceID != "exp-42" {
		t.Errorf("trace id lost on the way to terminal: %q", done.TraceID)
	}

	minted, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(21000)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if minted.TraceID != "t-"+minted.ID {
		t.Errorf("minted trace id = %q, want t-%s", minted.TraceID, minted.ID)
	}

	for _, bad := range []string{strings.Repeat("x", maxTraceIDLen+1), "has space", "ctrl\x01char", "unicode-é"} {
		if _, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000), TraceID: bad}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("trace id %q accepted with %s", bad, resp.Status)
		}
	}
}

// TestTraceIDIsolationUnderConcurrency is the cross-contamination check
// (run with -race): concurrent jobs with distinct specs and unique trace
// ids must each carry their own id on exactly one runner.exec span — an
// id showing up twice (or not at all) would mean jobs shared correlation
// state.
func TestTraceIDIsolationUnderConcurrency(t *testing.T) {
	tr := span.NewTracer("serve-test", 1024)
	_, hs := startServer(t, Options{
		Runner:   runner.Options{Workers: 4},
		MaxQueue: 64,
		Tracer:   tr,
	})

	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("race-%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct instruction bounds make every spec a distinct key,
			// so nothing dedups and each job runs its own simulation.
			st, resp := postJob(t, hs.URL, SubmitRequest{
				Task:    cheapSpec(uint64(20000 + 64*i)),
				TraceID: ids[i],
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: %s", i, resp.Status)
				return
			}
			if done := waitDone(t, hs.URL, st.ID); done.State != StateDone {
				t.Errorf("job %d: %s (%s)", i, done.State, done.Error)
			}
		}(i)
	}
	wg.Wait()

	seen := map[string]int{}
	for _, id := range execTraces(tr) {
		seen[id]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("trace id %q on %d runner.exec spans, want exactly 1 (all: %v)", id, seen[id], seen)
		}
	}
	if len(seen) != n {
		t.Errorf("%d distinct trace ids on runner.exec spans, want %d: %v", len(seen), n, seen)
	}
}

// TestDedupSharesCreatorTraceOnEvents: a dedup joiner keeps its own id in
// its JobStatus, but the single shared execution span carries the flight
// creator's id.
func TestDedupSharesCreatorTraceOnEvents(t *testing.T) {
	tr := span.NewTracer("serve-test", 256)
	resolve, _, _, release := gatedResolve(t)
	_, hs := startServer(t, Options{
		Runner:  runner.Options{Workers: 1},
		Resolve: resolve,
		Tracer:  tr,
	})

	first, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(23000), TraceID: "creator"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	joiner, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(23000), TraceID: "joiner"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if !joiner.Dedup {
		t.Fatalf("second submission did not dedup: %+v", joiner)
	}
	if joiner.TraceID != "joiner" {
		t.Errorf("joiner's own trace id = %q", joiner.TraceID)
	}
	release()
	waitDone(t, hs.URL, first.ID)
	waitDone(t, hs.URL, joiner.ID)

	execs := execTraces(tr)
	if len(execs) != 1 {
		t.Fatalf("%d runner.exec spans for a deduped pair, want 1", len(execs))
	}
	if execs[0] != "creator" {
		t.Errorf("shared execution traced under %q, want the creator's id", execs[0])
	}
}
