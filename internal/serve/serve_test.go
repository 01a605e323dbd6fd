package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmt/internal/obs"
	"mmt/internal/prog"
	"mmt/internal/runner"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// cheapSpec is a real but bounded simulation: libsvm capped at 20k
// committed instructions finishes in well under a second.
func cheapSpec(maxInsts uint64) sim.TaskSpec {
	return sim.TaskSpec{App: "libsvm", Config: &sim.ConfigOverride{MaxInsts: maxInsts}}
}

// gatedResolve wraps the default spec resolution so every system build
// blocks until release is called, and counts builds (= simulations
// actually run; cache hits never build). The task key is unchanged — the
// gate builds exactly the standard system.
func gatedResolve(t *testing.T) (resolve func(sim.TaskSpec) (sim.Task, error), builds *atomic.Int32, order *buildLog, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var n atomic.Int32
	log := &buildLog{}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // never leave a dispatcher blocked at teardown
	resolve = func(spec sim.TaskSpec) (sim.Task, error) {
		task, err := spec.Task()
		if err != nil {
			return sim.Task{}, err
		}
		app, threads, ident := task.App, task.Threads, task.Preset.IdenticalInputs()
		task.Build = func() (*prog.System, error) {
			n.Add(1)
			log.add(spec)
			<-gate
			return app.Build(threads, ident)
		}
		return task, nil
	}
	return resolve, &n, log, release
}

type buildLog struct {
	mu    sync.Mutex
	specs []sim.TaskSpec
}

func (l *buildLog) add(s sim.TaskSpec) {
	l.mu.Lock()
	l.specs = append(l.specs, s)
	l.mu.Unlock()
}

func (l *buildLog) list() []sim.TaskSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sim.TaskSpec(nil), l.specs...)
}

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJob(t *testing.T, base string, req SubmitRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding accepted job: %v", err)
		}
	}
	return st, resp
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, pred func(JobStatus) bool, what string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, what)
	return JobStatus{}
}

func waitDone(t *testing.T, base, id string) JobStatus {
	return waitState(t, base, id, func(s JobStatus) bool { return s.State.Terminal() }, "a terminal state")
}

// TestDedupSingleFlight is the dedup proof: eight concurrent identical
// submissions run exactly one simulation, and every waiter receives the
// same outcome.
func TestDedupSingleFlight(t *testing.T) {
	resolve, builds, _, release := gatedResolve(t)
	reg := obs.NewRegistry()
	_, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 2},
		MaxQueue:    16,
		Dispatchers: 2,
		Resolve:     resolve,
		Metrics:     reg,
	})

	const n = 8
	spec := cheapSpec(20000)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postJob(t, hs.URL, SubmitRequest{Task: spec})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submission %d: %s", i, resp.Status)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	release()

	var outcomes [][]byte
	for _, id := range ids {
		st := waitDone(t, hs.URL, id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (error %q)", id, st.State, st.Error)
		}
		if st.Source != "simulated" {
			t.Errorf("job %s: source %q, want simulated", id, st.Source)
		}
		if _, err := st.DecodeOutcome(); err != nil {
			t.Errorf("job %s outcome: %v", id, err)
		}
		outcomes = append(outcomes, st.Outcome)
	}
	for i := 1; i < len(outcomes); i++ {
		if !bytes.Equal(outcomes[0], outcomes[i]) {
			t.Errorf("job %d outcome differs from job 0", i)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("simulations run = %d, want exactly 1", got)
	}

	st := getStats(t, hs.URL)
	if st.Submitted != n || st.Deduped != n-1 || st.Completed != n || st.Simulated != 1 {
		t.Errorf("stats = submitted %d deduped %d completed %d simulated %d, want %d/%d/%d/1",
			st.Submitted, st.Deduped, st.Completed, st.Simulated, n, n-1, n)
	}
	snap := reg.Snapshot()
	if snap["mmt_serve_jobs_deduped_total"] != uint64(n-1) {
		t.Errorf("dedup metric = %v", snap["mmt_serve_jobs_deduped_total"])
	}
	if snap["mmt_serve_job_latency_seconds_count"] != uint64(n) {
		t.Errorf("job latency count = %v", snap["mmt_serve_job_latency_seconds_count"])
	}
}

// TestWarmRestartServedFromCache proves the persistent cache extends
// dedup across server restarts: a fresh server over the same cache
// directory serves a repeated submission without re-simulating.
func TestWarmRestartServedFromCache(t *testing.T) {
	dir := t.TempDir()
	spec := cheapSpec(20000)

	srvA, err := New(context.Background(), Options{Runner: runner.Options{Workers: 1, CacheDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA)
	stA, resp := postJob(t, hsA.URL, SubmitRequest{Task: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	cold := waitDone(t, hsA.URL, stA.ID)
	if cold.State != StateDone || cold.Source != "simulated" {
		t.Fatalf("cold job: state %s source %q", cold.State, cold.Source)
	}
	hsA.Close()
	srvA.Close()

	_, hsB := startServer(t, Options{Runner: runner.Options{Workers: 1, CacheDir: dir}})
	stB, resp := postJob(t, hsB.URL, SubmitRequest{Task: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("warm submit: %s", resp.Status)
	}
	warm := waitDone(t, hsB.URL, stB.ID)
	if warm.State != StateDone {
		t.Fatalf("warm job: state %s (error %q)", warm.State, warm.Error)
	}
	if warm.Source != "cache" {
		t.Errorf("warm job source = %q, want cache", warm.Source)
	}
	if !bytes.Equal(cold.Outcome, warm.Outcome) {
		t.Error("warm outcome differs from cold outcome")
	}
	if st := getStats(t, hsB.URL); st.FromCache != 1 || st.Simulated != 0 {
		t.Errorf("warm stats: from_cache %d simulated %d, want 1/0", st.FromCache, st.Simulated)
	}
}

// TestResubmitAfterFailureRebuilds: a spec whose simulation failed once
// is built again when resubmitted, instead of failing with the error the
// pool kept from the first run.
func TestResubmitAfterFailureRebuilds(t *testing.T) {
	var builds atomic.Int32
	resolve := func(spec sim.TaskSpec) (sim.Task, error) {
		task, err := spec.Task()
		if err != nil {
			return sim.Task{}, err
		}
		app, threads, ident := task.App, task.Threads, task.Preset.IdenticalInputs()
		task.Build = func() (*prog.System, error) {
			if builds.Add(1) == 1 {
				return nil, errors.New("transient")
			}
			return app.Build(threads, ident)
		}
		return task, nil
	}
	_, hs := startServer(t, Options{Runner: runner.Options{Workers: 1}, Resolve: resolve})
	spec := cheapSpec(20000)

	st, resp := postJob(t, hs.URL, SubmitRequest{Task: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if first := waitDone(t, hs.URL, st.ID); first.State != StateFailed || !strings.Contains(first.Error, "transient") {
		t.Fatalf("first job: state %s (error %q), want failed: transient", first.State, first.Error)
	}
	st, resp = postJob(t, hs.URL, SubmitRequest{Task: spec})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s", resp.Status)
	}
	if again := waitDone(t, hs.URL, st.ID); again.State != StateDone || again.Source != "simulated" {
		t.Errorf("resubmitted job: state %s source %q (error %q), want done and simulated", again.State, again.Source, again.Error)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("builds = %d, want 2", n)
	}
}

// TestAdmissionBackpressure fills the queue and checks the 429 +
// Retry-After contract, and that dedup joins bypass admission control.
func TestAdmissionBackpressure(t *testing.T) {
	resolve, _, _, release := gatedResolve(t)
	_, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 1},
		MaxQueue:    1,
		Dispatchers: 1,
		Resolve:     resolve,
	})

	// A occupies the sole dispatcher (its build blocks on the gate).
	a, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %s", resp.Status)
	}
	waitState(t, hs.URL, a.ID, func(s JobStatus) bool { return s.State == StateRunning }, "running")

	// B fills the one queue slot.
	b, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %s", resp.Status)
	}
	if b.State != StateQueued || b.QueuePosition != 1 {
		t.Errorf("B: state %s position %d, want queued at 1", b.State, b.QueuePosition)
	}

	// B' duplicates B: a dedup join, admitted despite the full queue.
	bDup, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B': %s", resp.Status)
	}
	if !bDup.Dedup {
		t.Error("B' not marked dedup")
	}

	// C is novel work against a full queue: 429 with a Retry-After hint.
	_, resp = postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(40000)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive integer", ra)
	}

	release()
	for _, id := range []string{a.ID, b.ID, bDup.ID} {
		if st := waitDone(t, hs.URL, id); st.State != StateDone {
			t.Errorf("job %s: state %s (error %q)", id, st.State, st.Error)
		}
	}
	if st := getStats(t, hs.URL); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestPriorityDispatchOrder: a higher-priority later submission overtakes
// queued work.
func TestPriorityDispatchOrder(t *testing.T) {
	resolve, _, order, release := gatedResolve(t)
	_, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 1},
		MaxQueue:    8,
		Dispatchers: 1,
		Resolve:     resolve,
	})

	a, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	waitState(t, hs.URL, a.ID, func(s JobStatus) bool { return s.State == StateRunning }, "running")
	low, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000), Priority: 0})
	high, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(40000), Priority: 5})
	if st := getJob(t, hs.URL, high.ID); st.QueuePosition != 1 {
		t.Errorf("high-priority queue position = %d, want 1", st.QueuePosition)
	}

	release()
	waitDone(t, hs.URL, low.ID)
	waitDone(t, hs.URL, high.ID)

	specs := order.list()
	if len(specs) != 3 {
		t.Fatalf("builds = %d, want 3", len(specs))
	}
	if specs[1].Config.MaxInsts != 40000 || specs[2].Config.MaxInsts != 30000 {
		t.Errorf("dispatch order = %d then %d, want the priority-5 job first",
			specs[1].Config.MaxInsts, specs[2].Config.MaxInsts)
	}
}

// TestQueuedDeadlineExpires: a job not dispatched by its deadline fails
// fast with StateExpired and never simulates.
func TestQueuedDeadlineExpires(t *testing.T) {
	resolve, builds, _, release := gatedResolve(t)
	_, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 1},
		MaxQueue:    8,
		Dispatchers: 1,
		Resolve:     resolve,
	})

	a, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	waitState(t, hs.URL, a.ID, func(s JobStatus) bool { return s.State == StateRunning }, "running")
	b, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000), DeadlineMS: 30})
	st := waitState(t, hs.URL, b.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if st.State != StateExpired {
		t.Fatalf("B state = %s, want expired", st.State)
	}
	if st.Error == "" {
		t.Error("expired job carries no error message")
	}

	release()
	waitDone(t, hs.URL, a.ID)
	if got := builds.Load(); got != 1 {
		t.Errorf("builds = %d, want 1 (the expired job must not simulate)", got)
	}
	if stats := getStats(t, hs.URL); stats.Expired != 1 {
		t.Errorf("expired = %d, want 1", stats.Expired)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data JobStatus
}

func readSSE(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.data); err != nil {
				t.Fatalf("decoding SSE data: %v", err)
			}
		case line == "" && ev.name != "":
			return ev
		}
	}
}

// TestStreamDeliversOutcome follows a job over SSE from submission to its
// final outcome event.
func TestStreamDeliversOutcome(t *testing.T) {
	resolve, _, _, release := gatedResolve(t)
	_, hs := startServer(t, Options{
		Runner:         runner.Options{Workers: 1},
		MaxQueue:       4,
		Dispatchers:    1,
		HeartbeatEvery: 20 * time.Millisecond,
		Resolve:        resolve,
	})

	st, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	first := readSSE(t, br)
	if first.name != eventState {
		t.Fatalf("first event = %q, want state", first.name)
	}
	if first.data.State.Terminal() {
		t.Fatalf("first event already terminal: %s", first.data.State)
	}

	// Collect at least one heartbeat while the build is gated, then the
	// outcome after release.
	sawProgress := false
	release2 := sync.OnceFunc(release)
	for {
		ev := readSSE(t, br)
		switch ev.name {
		case eventProgress:
			sawProgress = true
			release2()
		case eventOutcome:
			if !sawProgress {
				t.Error("no progress heartbeat before the outcome")
			}
			if ev.data.State != StateDone {
				t.Fatalf("outcome state = %s (error %q)", ev.data.State, ev.data.Error)
			}
			if _, err := ev.data.DecodeOutcome(); err != nil {
				t.Fatalf("stream outcome: %v", err)
			}
			// The stream ends after the outcome.
			if _, err := br.ReadByte(); err == nil {
				t.Error("stream kept going after the outcome event")
			}
			return
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
}

// TestStreamOfFinishedJob gets the outcome immediately.
func TestStreamOfFinishedJob(t *testing.T) {
	_, hs := startServer(t, Options{Runner: runner.Options{Workers: 1}})
	st, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	waitDone(t, hs.URL, st.ID)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ev := readSSE(t, bufio.NewReader(resp.Body))
	if ev.name != eventOutcome || ev.data.State != StateDone {
		t.Fatalf("event %q state %s, want an immediate done outcome", ev.name, ev.data.State)
	}
}

// TestDrainAndClose: draining rejects new work with 503 while in-flight
// work completes; Close strands nothing.
func TestDrainAndClose(t *testing.T) {
	resolve, _, _, release := gatedResolve(t)
	s, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 1},
		MaxQueue:    4,
		Dispatchers: 1,
		Resolve:     resolve,
	})

	a, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	waitState(t, hs.URL, a.ID, func(st JobStatus) bool { return st.State == StateRunning }, "running")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining flips healthz and refuses new submissions.
	waitHealth := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		json.NewDecoder(resp.Body).Decode(&h) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && h.Status == "draining" {
			break
		}
		if time.Now().After(waitHealth) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000)}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %s, want 503", resp.Status)
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getJob(t, hs.URL, a.ID); st.State != StateDone {
		t.Errorf("job A after drain: %s", st.State)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseStrandsQueuedJobs: queued-but-undispatched jobs fail with the
// shutdown error instead of hanging.
func TestCloseStrandsQueuedJobs(t *testing.T) {
	resolve, _, _, release := gatedResolve(t)
	s, hs := startServer(t, Options{
		Runner:      runner.Options{Workers: 1},
		MaxQueue:    4,
		Dispatchers: 1,
		Resolve:     resolve,
	})
	a, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	waitState(t, hs.URL, a.ID, func(st JobStatus) bool { return st.State == StateRunning }, "running")
	b, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(30000)})

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	st := waitState(t, hs.URL, b.ID, func(st JobStatus) bool { return st.State.Terminal() }, "terminal")
	if st.State != StateFailed || !strings.Contains(st.Error, "shutting down") {
		t.Errorf("stranded job: state %s error %q", st.State, st.Error)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBadSubmissions: malformed and invalid payloads fail at admission
// with 400, unknown jobs with 404.
func TestBadSubmissions(t *testing.T) {
	_, hs := startServer(t, Options{Runner: runner.Options{Workers: 1}})

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %s, want 400", resp.Status)
	}

	if _, resp := postJob(t, hs.URL, SubmitRequest{Task: sim.TaskSpec{App: "no-such-app"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown app: %s, want 400", resp.Status)
	}
	// A window smaller than the thread count would livelock the core.
	tiny := sim.TaskSpec{App: "libsvm", Threads: 2, Config: &sim.ConfigOverride{ROBSize: 1}}
	if _, resp := postJob(t, hs.URL, SubmitRequest{Task: tiny}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("1-entry ROB at 2 threads: %s, want 400", resp.Status)
	}
	// A profile without an instruction cap, or with too few contexts, and
	// a timing job capped outside its config fail at admission, not on a
	// worker (nor as an empty success).
	for name, spec := range map[string]sim.TaskSpec{
		"uncapped profile":      {App: "libsvm", Profile: true},
		"1-context profile":     {App: "libsvm", Profile: true, MaxInsts: 5000, Threads: 1},
		"top-level timing cap":  {App: "libsvm", MaxInsts: 5000},
		"negative profile cap":  {App: "libsvm", Profile: true, MaxInsts: -1},
		"negative profile size": {App: "libsvm", Profile: true, MaxInsts: 5000, Threads: -2},
	} {
		if _, resp := postJob(t, hs.URL, SubmitRequest{Task: spec}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}

	r2, err := http.Get(hs.URL + "/v1/jobs/j999999-missing")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", r2.Status)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	resolve, _, _, release := gatedResolve(t)
	reg := obs.NewRegistry()
	_, hs := startServer(t, Options{Runner: runner.Options{Workers: 1}, Resolve: resolve, Metrics: reg})
	st, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	// The gate holds the flight open, so an identical submission joins it.
	join, _ := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	if !join.Dedup {
		t.Fatalf("second submission %s did not join the first", join.ID)
	}
	release()
	waitDone(t, hs.URL, st.ID)
	waitDone(t, hs.URL, join.ID)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mmt_serve_jobs_submitted_total 2",
		"mmt_serve_jobs_deduped_total 1",
		"mmt_serve_jobs_completed_total 2",
		"mmt_serve_queue_depth 0",
		"# TYPE mmt_serve_request_latency_seconds histogram",
		"# TYPE mmt_serve_job_latency_seconds histogram",
		"mmt_serve_job_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, "mmt_runner_") {
		t.Error("pool metrics not shared into the serve registry")
	}

	// /v1/stats reads the very instruments /metrics exports.
	stats := getStats(t, hs.URL)
	snap := reg.Snapshot()
	for name, got := range map[string]uint64{
		"mmt_serve_jobs_submitted_total":    stats.Submitted,
		"mmt_serve_jobs_deduped_total":      stats.Deduped,
		"mmt_serve_jobs_rejected_total":     stats.Rejected,
		"mmt_serve_jobs_expired_total":      stats.Expired,
		"mmt_serve_jobs_completed_total":    stats.Completed,
		"mmt_serve_jobs_failed_total":       stats.Failed,
		"mmt_serve_flights_simulated_total": stats.Simulated,
		"mmt_serve_flights_cache_total":     stats.FromCache,
	} {
		if snap[name] != got {
			t.Errorf("/v1/stats reports %d, %s = %v", got, name, snap[name])
		}
	}
	for name, got := range map[string]int{
		"mmt_serve_queue_depth":    stats.QueueDepth,
		"mmt_serve_streams_active": stats.Streams,
	} {
		if snap[name] != int64(got) {
			t.Errorf("/v1/stats reports %d, %s = %v", got, name, snap[name])
		}
	}
}

// TestPrecheckAdmissionGate proves the static admission gate: a
// submission whose resolved program carries error-severity findings is
// rejected with 400 before it consumes a queue slot, while a sound
// program is admitted and runs to completion on the same server.
func TestPrecheckAdmissionGate(t *testing.T) {
	// No halt and no branch: execution falls off the end of the text
	// segment, an error-severity structural finding.
	const badSrc = `
        tid  r4
        addi r5, r4, 1
`
	resolve := func(spec sim.TaskSpec) (sim.Task, error) {
		if spec.App != "broken" {
			return spec.Task()
		}
		task, err := cheapSpec(20000).Task()
		if err != nil {
			return sim.Task{}, err
		}
		task.App = workloads.App{Name: "broken", Source: badSrc}
		return task, nil
	}
	_, hs := startServer(t, Options{
		Runner:   runner.Options{Workers: 1},
		MaxQueue: 4,
		Precheck: true,
		Resolve:  resolve,
	})

	_, resp := postJob(t, hs.URL, SubmitRequest{Task: sim.TaskSpec{App: "broken"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad program: %s, want 400", resp.Status)
	}

	// A registered workload rebound over the wire: with its mailbox at
	// address 0 every exchange misses the data space (value-lint
	// oob-access errors), and the program would spin forever if run.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"task":{"app":"pingpong-mp","equ":{"MBOX":0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "oob-access") {
		t.Fatalf("pingpong-mp with MBOX=0: %s %s, want 400 naming oob-access", resp.Status, body)
	}

	st, resp := postJob(t, hs.URL, SubmitRequest{Task: cheapSpec(20000)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sound program: %s, want 202", resp.Status)
	}
	if got := waitDone(t, hs.URL, st.ID); got.State != StateDone {
		t.Fatalf("sound program job: %s (error %q)", got.State, got.Error)
	}
	if stats := getStats(t, hs.URL); stats.Submitted != 1 {
		t.Errorf("submitted = %d, want 1 (rejections must not count)", stats.Submitted)
	}
}
