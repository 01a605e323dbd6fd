package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/sim"
)

// testClient pins the retry seams: sleeps are recorded instead of taken,
// and jitter is the identity so backoff durations are deterministic.
func testClient(base string) (*Client, *[]time.Duration) {
	c := New(base, nil)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		slept = append(slept, d)
		return nil
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	return c, &slept
}

func accept(w http.ResponseWriter, st serve.JobStatus) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(st) //nolint:errcheck
}

func TestSubmitRetriesThrough503(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
			return
		}
		accept(w, serve.JobStatus{ID: "j000001-abc", State: serve.StateQueued})
	}))
	defer hs.Close()

	c, slept := testClient(hs.URL)
	st, err := c.Submit(context.Background(), serve.SubmitRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000001-abc" {
		t.Errorf("job id = %q", st.ID)
	}
	if calls.Load() != 3 {
		t.Errorf("requests = %d, want 3", calls.Load())
	}
	// Full-jitter backoff with identity jitter: base, then base*2.
	if want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}; len(*slept) != 2 ||
		(*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", *slept, want)
	}
}

func TestSubmitHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
			return
		}
		accept(w, serve.JobStatus{ID: "j000002-def", State: serve.StateQueued})
	}))
	defer hs.Close()

	c, slept := testClient(hs.URL)
	if _, err := c.Submit(context.Background(), serve.SubmitRequest{}); err != nil {
		t.Fatal(err)
	}
	// The server's 2s hint beats the 100ms computed backoff.
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want [2s]", *slept)
	}
}

func TestSubmitDoesNotRetryBadRequest(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"unknown application"}`, http.StatusBadRequest)
	}))
	defer hs.Close()

	c, slept := testClient(hs.URL)
	_, err := c.Submit(context.Background(), serve.SubmitRequest{})
	var se *StatusError
	if !asStatusError(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if !strings.Contains(se.Message, "unknown application") {
		t.Errorf("message = %q", se.Message)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Errorf("requests = %d sleeps = %v, want one attempt and no sleeps", calls.Load(), *slept)
	}
}

func TestSubmitGivesUp(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer hs.Close()

	c, _ := testClient(hs.URL)
	c.Retries = 2
	_, err := c.Submit(context.Background(), serve.SubmitRequest{})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if calls.Load() != 3 {
		t.Errorf("requests = %d, want 3", calls.Load())
	}
}

// sseWrite emits one SSE event and flushes.
func sseWrite(w http.ResponseWriter, event string, st serve.JobStatus) {
	b, _ := json.Marshal(st)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	w.(http.Flusher).Flush()
}

// TestWaitFollowsStream checks that Wait sees every event, and returns
// only once the server has ended the stream, not as soon as the outcome
// arrives: a router proxying the stream counts the job finished only when
// the stream ends with its client still connected.
func TestWaitFollowsStream(t *testing.T) {
	var ended atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		sseWrite(w, "state", serve.JobStatus{ID: "j1", State: serve.StateQueued})
		sseWrite(w, "progress", serve.JobStatus{ID: "j1", State: serve.StateRunning})
		sseWrite(w, "outcome", serve.JobStatus{ID: "j1", State: serve.StateDone, Source: "simulated"})
		time.Sleep(20 * time.Millisecond) // work after the outcome, before the stream ends
		ended.Store(true)
	}))
	defer hs.Close()

	c, _ := testClient(hs.URL)
	var events []string
	st, err := c.Wait(context.Background(), "j1", func(ev string, _ serve.JobStatus) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone || st.Source != "simulated" {
		t.Errorf("final = %s/%s", st.State, st.Source)
	}
	if want := []string{"state", "progress", "outcome"}; len(events) != 3 ||
		events[0] != want[0] || events[1] != want[1] || events[2] != want[2] {
		t.Errorf("events = %v, want %v", events, want)
	}
	if !ended.Load() {
		t.Error("Wait returned before the server ended the stream")
	}
}

func TestWaitContextCancelMidStream(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		sseWrite(w, "state", serve.JobStatus{ID: "j1", State: serve.StateRunning})
		<-r.Context().Done() // hold the stream open until the client hangs up
	}))
	defer hs.Close()

	c, _ := testClient(hs.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := c.Wait(ctx, "j1", nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWaitReconnectsAfterDrop(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First connection dies mid-stream without an outcome.
			w.Header().Set("Content-Type", "text/event-stream")
			sseWrite(w, "state", serve.JobStatus{ID: "j1", State: serve.StateRunning})
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		sseWrite(w, "outcome", serve.JobStatus{ID: "j1", State: serve.StateDone})
	}))
	defer hs.Close()

	c, slept := testClient(hs.URL)
	st, err := c.Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Errorf("final state = %s", st.State)
	}
	if calls.Load() != 2 || len(*slept) != 1 {
		t.Errorf("connections = %d sleeps = %v, want a single backoff reconnect", calls.Load(), *slept)
	}
}

func TestWaitReconnectHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error":"stream quota"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		sseWrite(w, "outcome", serve.JobStatus{ID: "j1", State: serve.StateDone})
	}))
	defer hs.Close()

	c, slept := testClient(hs.URL)
	st, err := c.Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Errorf("final state = %s", st.State)
	}
	// The server's 3s hint beats the 100ms computed reconnect backoff.
	if len(*slept) != 1 || (*slept)[0] != 3*time.Second {
		t.Errorf("sleeps = %v, want [3s]", *slept)
	}
}

func TestWaitSurfacesRetryAfterOnGiveUp(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"stream quota"}`, http.StatusTooManyRequests)
	}))
	defer hs.Close()

	c, _ := testClient(hs.URL)
	c.Retries = 1
	_, err := c.Wait(context.Background(), "j1", nil)
	if err == nil {
		t.Fatal("Wait succeeded against a permanent 429")
	}
	var se *StatusError
	if !asStatusError(err, &se) {
		t.Fatalf("err = %v, want a wrapped StatusError", err)
	}
	if se.Code != http.StatusTooManyRequests || se.RetryAfter != 7*time.Second {
		t.Errorf("surfaced StatusError = code %d retryAfter %s, want 429 with 7s", se.Code, se.RetryAfter)
	}
}

// TestWaitCancelSkipsBackoff checks the cancellation contract: once the
// caller's context is done, Wait returns without serving another backoff
// sleep — even with a sleep seam that would ignore the context.
func TestWaitCancelSkipsBackoff(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer hs.Close()

	c := New(hs.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var sleeps atomic.Int32
	c.sleep = func(_ context.Context, d time.Duration) error {
		// A sleep that ignores its context: the pre-sleep ctx check must
		// keep this from running again after the cancel below.
		sleeps.Add(1)
		cancel()
		return nil
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	_, err := c.Wait(ctx, "j1", nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sleeps.Load() != 1 {
		t.Errorf("slept %d times after cancellation, want the loop to stop at 1", sleeps.Load())
	}
}

// TestDefaultSleepHonorsContext checks the production sleep seam: a
// cancellation mid-backoff returns immediately instead of finishing the
// full delay.
func TestDefaultSleepHonorsContext(t *testing.T) {
	c := New("http://unused", nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.sleep(ctx, 10*time.Second)
	if err != context.Canceled {
		t.Fatalf("sleep = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("sleep held the full backoff (%s) after cancellation", waited)
	}
}

// TestRunAgainstRealServer is the end-to-end path: a real serve.Server, a
// real (bounded) simulation, the one-call Run API.
func TestRunAgainstRealServer(t *testing.T) {
	s, err := serve.New(context.Background(), serve.Options{Runner: runner.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	c := New(hs.URL, nil)
	spec := sim.TaskSpec{App: "libsvm", Config: &sim.ConfigOverride{MaxInsts: 20000}}
	out, st, err := c.Run(context.Background(), serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Errorf("state = %s", st.State)
	}
	if out.Result == nil || out.Result.Stats == nil {
		t.Error("outcome missing simulation result")
	}

	// An identical resubmission resolves without a second simulation.
	_, st2, err := c.Run(context.Background(), serve.SubmitRequest{Task: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != serve.StateDone {
		t.Errorf("resubmission state = %s", st2.State)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 1 {
		t.Errorf("simulated = %d, want 1 (memo or cache must serve the repeat)", stats.Simulated)
	}
}
