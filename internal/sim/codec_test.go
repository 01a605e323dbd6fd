package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"mmt/internal/core"
	"mmt/internal/workloads"
)

func specApp(t *testing.T, name string) workloads.App {
	t.Helper()
	a, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("missing app %s", name)
	}
	return a
}

// TestTaskSpecKeyMatchesMutateClosure is the anti-drift proof: a wire
// TaskSpec with a ConfigOverride must resolve to the exact content-
// addressed key of a hand-built Task whose Mutate closure has the same
// effect — otherwise the server and the persistent cache would disagree
// about identity.
func TestTaskSpecKeyMatchesMutateClosure(t *testing.T) {
	spec := TaskSpec{
		App:     "libsvm",
		Preset:  PresetBase,
		Threads: 2,
		Config:  &ConfigOverride{FHBSize: 64, MaxInsts: 20000},
	}
	st, err := spec.Task()
	if err != nil {
		t.Fatal(err)
	}
	specKey, err := st.Key()
	if err != nil {
		t.Fatal(err)
	}

	direct := Task{
		App:     specApp(t, "libsvm"),
		Preset:  PresetBase,
		Threads: 2,
		Mutate: func(c *core.Config) {
			c.FHBSize = 64
			c.MaxInsts = 20000
		},
	}
	directKey, err := direct.Key()
	if err != nil {
		t.Fatal(err)
	}
	if specKey != directKey {
		t.Errorf("spec key %s != closure key %s", specKey, directKey)
	}
}

func TestTaskSpecJSONRoundTrip(t *testing.T) {
	specs := []TaskSpec{
		{App: "ammp"}, // defaults: MMT-FXR, 2 threads
		{App: "equake", Preset: PresetMMTF, Threads: 4,
			Config: &ConfigOverride{FetchWidth: 16, LSPorts: 4}},
		{App: "libsvm", Profile: true, MaxInsts: 5000},
		{App: "twolf", Preset: PresetBase, Equ: map[string]int64{"MOVES": 10}},
	}
	for _, spec := range specs {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back TaskSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		t1, err := spec.Task()
		if err != nil {
			t.Fatalf("%s: %v", spec.App, err)
		}
		t2, err := back.Task()
		if err != nil {
			t.Fatalf("%s after round trip: %v", spec.App, err)
		}
		k1, err1 := t1.Key()
		k2, err2 := t2.Key()
		if err1 != nil || err2 != nil {
			t.Fatalf("keying: %v %v", err1, err2)
		}
		if k1 != k2 {
			t.Errorf("%s: key changed across JSON round trip", spec.App)
		}
	}
}

func TestTaskSpecRejectsBadInput(t *testing.T) {
	if _, err := (TaskSpec{App: "no-such-app"}).Task(); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := (TaskSpec{App: "ammp", Preset: Preset("Bogus")}).Task(); err == nil {
		t.Error("unknown preset accepted")
	}
	// A shared fetch splits into up to Threads pieces that dispatch
	// together, so a smaller window would livelock the core: resolution
	// refuses it and names the window.
	for window, ov := range map[string]ConfigOverride{
		"ROB": {ROBSize: 1},
		"IQ":  {IQSize: 1},
		"LSQ": {LSQSize: 1},
	} {
		_, err := (TaskSpec{App: "libsvm", Threads: 2, Config: &ov}).Task()
		if err == nil || !strings.Contains(err.Error(), window) {
			t.Errorf("%s of 1 entry at 2 threads: got %v, want an error naming the %s", window, err, window)
		}
	}
	// A profile needs an instruction cap and 2–4 contexts; a timing task
	// is capped through its config, so a top-level cap would only change
	// its key.
	for _, c := range []struct {
		spec TaskSpec
		want string
	}{
		{TaskSpec{App: "libsvm", Profile: true}, "max_insts"},
		{TaskSpec{App: "libsvm", Profile: true, MaxInsts: -5}, "max_insts"},
		{TaskSpec{App: "libsvm", Profile: true, MaxInsts: 5000, Threads: 1}, "threads 1"},
		{TaskSpec{App: "libsvm", Profile: true, MaxInsts: 5000, Threads: -2}, "threads -2"},
		{TaskSpec{App: "libsvm", Profile: true, MaxInsts: 5000, Threads: 5}, "threads 5"},
		{TaskSpec{App: "libsvm", MaxInsts: 5000}, "config.max_insts"},
		// A message-passing kernel runs only at the rank counts its
		// protocol completes at; elsewhere it would spin to its cycle cap.
		{TaskSpec{App: "allreduce-mp", Threads: 2}, "runs on 4 ranks"},
		{TaskSpec{App: "pingpong-mp", Threads: 3}, "runs on 2 or 4 ranks"},
		{TaskSpec{App: "jacobi-mp", Threads: 1}, "runs on 2 or 4 ranks"},
	} {
		if _, err := c.spec.Task(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %s", c.spec, err, c.want)
		}
	}
	for _, n := range []int{0, 2, 4} {
		if _, err := (TaskSpec{App: "libsvm", Profile: true, MaxInsts: 5000, Threads: n}).Task(); err != nil {
			t.Errorf("profile at threads %d refused: %v", n, err)
		}
	}
	// Base has no shared fetch and runs with a 1-entry window.
	if _, err := (TaskSpec{App: "libsvm", Preset: PresetBase, Threads: 2,
		Config: &ConfigOverride{ROBSize: 1, IQSize: 1, LSQSize: 1}}).Task(); err != nil {
		t.Errorf("Base with 1-entry windows refused: %v", err)
	}
}

// TestConfigOverrideRejectsUnknownFields: space specs and submissions are
// user-authored, so a misspelled knob must be a decode error, not a
// silently ignored field simulating the default machine.
func TestConfigOverrideRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"fhb_sz": 64}`,                  // typo
		`{"fhb_size": 64, "bogus": true}`, // extra field
		`{"FHBSize": 64}`,                 // Go name instead of wire name
	}
	for _, c := range cases {
		var o ConfigOverride
		if err := json.Unmarshal([]byte(c), &o); err == nil {
			t.Errorf("decoded %s without error", c)
		}
	}
	// The rejection must hold when the override is nested in a TaskSpec —
	// the path every wire submission takes.
	var spec TaskSpec
	bad := `{"app":"libsvm","config":{"fhb_size":64,"fetch_widht":4}}`
	if err := json.Unmarshal([]byte(bad), &spec); err == nil {
		t.Error("TaskSpec decoded an override with an unknown field")
	}
}

// TestConfigOverrideRejectsOutOfRange: negative or absurd knob values fail
// at decode time with the field named.
func TestConfigOverrideRejectsOutOfRange(t *testing.T) {
	cases := []string{
		`{"fhb_size": -1}`,
		`{"fhb_size": 4096}`,
		`{"fetch_width": -8}`,
		`{"fetch_width": 1000}`,
		`{"ls_ports": 17}`,
		`{"lvip_size": -4}`,
		`{"fetch_queue": -1}`,
		`{"iq_size": 100000}`,
		`{"rob_size": -256}`,
		`{"lsq_size": 1000000}`,
		`{"reg_merge_ports": -2}`,
		`{"sync_policy": "speculative"}`,
		`{"l1_kb": 48}`,    // not a power of two
		`{"l2_kb": -1024}`, // negative
		`{"l2_kb": 4}`,     // below the minimum L2
	}
	for _, c := range cases {
		var o ConfigOverride
		if err := json.Unmarshal([]byte(c), &o); err == nil {
			t.Errorf("decoded %s without error", c)
		}
	}
	// In-process construction skips the JSON decoder; TaskSpec resolution
	// must apply the same validation.
	spec := TaskSpec{App: "libsvm", Config: &ConfigOverride{FHBSize: -3}}
	if _, err := spec.Task(); err == nil {
		t.Error("TaskSpec resolved a negative fhb_size")
	}
}

// TestConfigOverrideAppliesNewKnobs: each new knob must land in the
// resolved configuration (a knob that validates but does not apply would
// silently sweep nothing).
func TestConfigOverrideAppliesNewKnobs(t *testing.T) {
	spec := TaskSpec{App: "libsvm", Config: &ConfigOverride{
		LVIPSize: 1024, FetchQueue: 16, IQSize: 32, ROBSize: 128,
		LSQSize: 32, RegMergePorts: 4, SyncPolicy: "hints", L1KB: 32, L2KB: 2048,
	}}
	task, err := spec.Task()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := task.ResolvedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LVIPSize != 1024 || cfg.FetchQueue != 16 || cfg.IQSize != 32 ||
		cfg.ROBSize != 128 || cfg.LSQSize != 32 || cfg.RegMergePorts != 4 {
		t.Errorf("queue/table knobs not applied: %+v", cfg)
	}
	if cfg.Sync != core.SyncHints {
		t.Errorf("sync policy not applied: %v", cfg.Sync)
	}
	if cfg.Mem.L1I.SizeBytes != 32<<10 || cfg.Mem.L1D.SizeBytes != 32<<10 || cfg.Mem.L2.SizeBytes != 2048<<10 {
		t.Errorf("cache geometry not applied: %+v", cfg.Mem)
	}
}

func TestOutcomeCodecRoundTrip(t *testing.T) {
	spec := TaskSpec{App: "libsvm", Preset: PresetBase, Threads: 2,
		Config: &ConfigOverride{MaxInsts: 20000}}
	task, err := spec.Task()
	if err != nil {
		t.Fatal(err)
	}
	out, err := task.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-compare the re-encoding: any field the codec drops or mangles
	// would diverge here.
	b2, err := MarshalOutcome(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Error("outcome changed across a codec round trip")
	}
	if back.Result == nil || back.Result.Stats.Cycles != out.Result.Stats.Cycles {
		t.Error("decoded outcome lost its statistics")
	}
}

func TestOutcomeValidate(t *testing.T) {
	cases := []struct {
		name string
		o    *Outcome
	}{
		{"nil", nil},
		{"empty", &Outcome{}},
		{"result without stats", &Outcome{Result: &Result{}}},
	}
	for _, c := range cases {
		if err := c.o.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if _, err := MarshalOutcome(&Outcome{}); err == nil {
		t.Error("empty outcome marshaled")
	}
	if _, err := UnmarshalOutcome([]byte(`{}`)); err == nil {
		t.Error("empty outcome decoded")
	}
	if _, err := UnmarshalOutcome([]byte(`{garbage`)); err == nil {
		t.Error("garbage decoded")
	}
}
