package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/power"
	"mmt/internal/prof"
	"mmt/internal/prog"
	"mmt/internal/trace"
	"mmt/internal/workloads"
)

// KeySchema salts every task key. Bump it whenever the Result/Profile
// serialization or the simulator's semantics change incompatibly: persistent
// cache entries written by older binaries then stop matching their keys and
// the points are re-simulated instead of being served stale.
//
// Schema history: 2 renamed core.Stats.FetchUops to FetchAccesses (entries
// written by schema-1 binaries would decode with zero fetch counts);
// 3 profiles gained remerge edges (prof schema 2) — older cached outcomes
// would fail profile validation and lack cross-validation data.
const KeySchema = 3

// Task fully describes one unit of experiment work: a timing simulation of
// one (app, preset, threads) point — possibly with a configuration mutation
// or a custom-built system — or a §3 trace-alignment profile. Tasks are
// content-addressed: Key folds every input that can change the outcome into
// a canonical hash, which the in-memory memo and the persistent result
// cache share.
type Task struct {
	// App is the workload. Its name and a hash of its assembly source
	// enter the key; ignored when Build is set.
	App workloads.App
	// Preset selects the Table 5 design point (unused by Profile tasks).
	Preset Preset
	// Threads is the hardware thread count (context count for Profile
	// tasks).
	Threads int
	// Mutate optionally adjusts the configuration before the run. It is
	// folded into the key by hashing the fully resolved configuration, so
	// two distinct closures with the same effect share one key.
	Mutate func(*core.Config)
	// Variant names a custom-built system (co-scheduling pairs, diversity
	// builds). It must uniquely describe what Build constructs, because
	// the build closure itself cannot be hashed. Empty for standard
	// points.
	Variant string
	// Build overrides the standard system construction when non-nil.
	Build func() (*prog.System, error)
	// Profile switches the task from a timing simulation to the trace-
	// alignment study of Fig. 1/2; MaxInsts bounds per-context dynamic
	// instructions.
	Profile  bool
	MaxInsts int
	// Trace, when non-nil, is attached to the simulated core, which then
	// emits discrete events plus one cycle sample every SampleEvery
	// cycles (0 disables sampling). Tracing never changes the simulated
	// outcome, so it is NOT part of the key — but executors that serve
	// outcomes from a cache or memo never replay the event stream, so
	// traced tasks must run where neither can answer (Execute, or a fresh
	// pool without a persistent cache). Ignored by Profile tasks.
	Trace       obs.Recorder
	SampleEvery uint64
	// Attribution attaches a per-PC attribution profiler (internal/prof)
	// to the run and embeds its snapshot in the outcome. Unlike Trace,
	// the profile is part of the serialized outcome, so attributed tasks
	// cache normally — Attribution IS part of the key (an attributed and
	// a plain run of the same point are distinct cache entries). Ignored
	// by Profile (trace-alignment) tasks.
	Attribution bool
	// TraceID is the job-scoped correlation id naming the trace of the
	// runner's spans for this task (serve mints one per job; local drivers
	// may set their own). Purely observational, NOT part of the key.
	TraceID string
	// SpanParent is the serialized distributed-span context ("traceparent"
	// form) under which the runner opens its scheduling/cache/exec spans
	// for this task. Purely observational, NOT part of the key.
	SpanParent string
	// Phase, when non-nil, observes the coarse execution phases: Execute
	// calls Phase(name) entering a phase ("build", "run") and the returned
	// func leaving it. The runner bridges it to span children. Never
	// changes the outcome, NOT part of the key.
	Phase func(name string) func()
}

// Outcome is a task's product: exactly one of Result (timing simulation)
// or Profile (trace alignment) is non-nil. Attribution accompanies a
// Result when the task requested it (Task.Attribution) and travels with
// the outcome through the cache and the serving API.
type Outcome struct {
	Result      *Result        `json:"result,omitempty"`
	Profile     *trace.Profile `json:"profile,omitempty"`
	Attribution *prof.Profile  `json:"attribution,omitempty"`
}

// Name returns a short human-readable label for progress displays, e.g.
// "ammp/MMT-FXR/2T" or "profile:ammp/2C".
func (t Task) Name() string {
	id := t.App.Name
	if t.Variant != "" {
		id = t.Variant
	}
	if t.Profile {
		return fmt.Sprintf("profile:%s/%dC", id, t.Threads)
	}
	return fmt.Sprintf("%s/%s/%dT", id, t.Preset, t.Threads)
}

// ResolvedConfig returns the task's full core configuration: the preset's
// Table 4/5 machine with Mutate applied.
func (t Task) ResolvedConfig() (core.Config, error) {
	cfg, err := Configure(t.Preset, t.Threads)
	if err != nil {
		return core.Config{}, err
	}
	if t.Mutate != nil {
		t.Mutate(&cfg)
	}
	return cfg, nil
}

// taskKeyBlob is the canonical serialized identity a task key hashes.
type taskKeyBlob struct {
	Schema     int
	App        string
	SourceHash string `json:",omitempty"`
	Variant    string `json:",omitempty"`
	Preset     Preset `json:",omitempty"`
	Threads    int
	Profile    bool               `json:",omitempty"`
	MaxInsts   int                `json:",omitempty"`
	Align      *trace.AlignConfig `json:",omitempty"`
	Config     *core.Config       `json:",omitempty"`
	// Attribution distinguishes attributed runs: their outcomes carry a
	// profile, so they must not share cache entries with plain runs.
	// omitempty keeps every pre-existing (non-attributed) key unchanged.
	Attribution bool `json:",omitempty"`
}

// Key returns the task's canonical content-addressed identity: a hex
// SHA-256 over the schema version, the workload identity (name + source
// hash), the variant, and either the fully resolved core configuration
// (timing tasks — this is what makes Mutate hooks cacheable) or the
// alignment parameters (profile tasks).
func (t Task) Key() (string, error) {
	blob := taskKeyBlob{
		Schema:      KeySchema,
		App:         t.App.Name,
		Variant:     t.Variant,
		Preset:      t.Preset,
		Threads:     t.Threads,
		Profile:     t.Profile,
		MaxInsts:    t.MaxInsts,
		Attribution: t.Attribution && !t.Profile,
	}
	if t.App.Source != "" {
		sum := sha256.Sum256([]byte(t.App.Source))
		blob.SourceHash = hex.EncodeToString(sum[:8])
	}
	if t.Profile {
		ac := trace.DefaultAlignConfig()
		blob.Align = &ac
	} else {
		cfg, err := t.ResolvedConfig()
		if err != nil {
			return "", err
		}
		blob.Config = &cfg
	}
	b, err := json.Marshal(blob)
	if err != nil {
		return "", fmt.Errorf("sim: keying %s: %w", t.Name(), err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// phase enters a named execution phase, returning the leave func (a no-op
// without a Phase observer).
func (t Task) phase(name string) func() {
	if t.Phase == nil {
		return func() {}
	}
	return t.Phase(name)
}

// system builds the task's program system, inside the "build" phase.
func (t Task) system() (*prog.System, error) {
	defer t.phase("build")()
	if t.Build != nil {
		return t.Build()
	}
	return t.App.Build(t.Threads, t.Preset.IdenticalInputs())
}

// Core builds the task's simulated machine, ready to step: the resolved
// configuration, the built system, and the core around them.
func (t Task) Core() (*core.Core, error) {
	cfg, err := t.ResolvedConfig()
	if err != nil {
		return nil, err
	}
	sys, err := t.system()
	if err != nil {
		return nil, err
	}
	return core.New(cfg, sys)
}

// Execute runs the task to completion on the calling goroutine.
func (t Task) Execute() (*Outcome, error) {
	if t.Profile {
		sys, err := t.system()
		if err != nil {
			return nil, err
		}
		leave := t.phase("run")
		prof, err := trace.ProfileSystem(sys, t.MaxInsts, trace.DefaultAlignConfig())
		leave()
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", t.Name(), err)
		}
		return &Outcome{Profile: prof}, nil
	}
	c, err := t.Core()
	if err != nil {
		return nil, err
	}
	if t.Trace != nil {
		c.Attach(t.Trace, t.SampleEvery)
	}
	var profiler *prof.Profiler
	if t.Attribution {
		profiler = prof.New()
		c.AttachProbe(profiler)
	}
	leave := t.phase("run")
	st, err := c.Run()
	leave()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", t.Name(), err)
	}
	name := t.App.Name
	if t.Variant != "" {
		name = t.Variant
	}
	model := power.NewModel()
	res := &Result{
		App:     name,
		Preset:  t.Preset,
		Threads: t.Threads,
		Stats:   st,
		Mem:     c.MemEvents(),
		Energy:  model.Energy(st, c.MemEvents()),
	}
	res.EnergyPerJob = model.EnergyPerJob(st, c.MemEvents())
	o := &Outcome{Result: res}
	if profiler != nil {
		o.Attribution = profiler.Snapshot()
	}
	return o, nil
}

// Exec executes simulation tasks for the experiment drivers. The drivers
// enumerate every point they will need, announce them with Schedule, then
// assemble their tables in deterministic order by collecting each outcome
// with Do — so a parallel executor overlaps the simulations while the
// assembled output stays byte-identical to a serial run.
type Exec interface {
	// Schedule announces tasks whose outcomes will later be collected
	// with Do, letting parallel executors start them immediately.
	// Implementations may ignore it; scheduling is never required before
	// Do. The error (e.g. a closed executor refusing work) is advisory
	// for drivers that collect every outcome with Do, because Do reports
	// the same condition per task.
	Schedule(tasks ...Task) error
	// Do returns the task's outcome, executing it if it is not already
	// available. Tasks with equal keys share one outcome.
	Do(t Task) (*Outcome, error)
}

// Serial is the inline executor: it runs tasks on the calling goroutine and
// memoizes outcomes, so artifacts sharing points (Fig. 5a/5b/5d/6 all need
// the Base and MMT-FXR runs) simulate each point once.
type Serial struct{ memo *Memo }

// NewSerial returns a serial executor with a fresh memo.
func NewSerial() *Serial { return &Serial{memo: NewMemo()} }

// Schedule is a no-op: serial execution happens at Do time.
func (s *Serial) Schedule(tasks ...Task) error { return nil }

// Do executes the task inline, serving repeats from the memo.
func (s *Serial) Do(t Task) (*Outcome, error) { return s.memo.Do(t) }
