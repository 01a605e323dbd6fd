package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mmt/internal/core"
	"mmt/internal/workloads"
)

// This file is the canonical JSON codec for the experiment subsystem's two
// wire types. TaskSpec is the declarative, serializable description of a
// Task — everything a remote caller may express, nothing that requires a
// closure — and MarshalOutcome/UnmarshalOutcome are the single encoding of
// a task's product. The persistent result cache, the job server's HTTP
// API, and mmtsim's -out files all go through these functions, so the
// serving layer can never drift from the cache-key schema: a TaskSpec
// resolves to a Task whose Key is the same content-addressed hash the
// cache files embed.

// ConfigOverride is the declarative counterpart of Task.Mutate: the
// configuration knobs a remote submission may adjust. Zero fields leave
// the preset's Table 4/5 value in place. The overrides enter the resolved
// configuration and therefore the task key, exactly like a Mutate closure
// with the same effect.
//
// Specs are user-authored (mmtdse space files, HTTP submissions), so the
// codec fails fast: JSON decoding rejects unknown fields, and Validate
// rejects out-of-range values at decode/resolve time instead of letting a
// typo silently simulate the default machine.
type ConfigOverride struct {
	// FHBSize overrides the Fetch History Buffer entries (Fig. 7(a) knob).
	FHBSize int `json:"fhb_size,omitempty"`
	// FetchWidth overrides the fetch width (Fig. 7(d) knob).
	FetchWidth int `json:"fetch_width,omitempty"`
	// LSPorts overrides the load/store ports; MSHRs scale with the ports
	// as in Fig. 7(b).
	LSPorts int `json:"ls_ports,omitempty"`
	// MaxInsts bounds per-thread committed instructions — the knob for
	// cheap bounded jobs (load tests, smoke runs). 0 = no bound.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// LVIPSize overrides the Load-Value-Identical-Predictor table entries
	// (Table 4: 4096; the core rounds up to a power of two).
	LVIPSize int `json:"lvip_size,omitempty"`
	// Queue depths: fetch queue, issue queue, reorder buffer, load/store
	// queue (Table 4: 32/64/256/64).
	FetchQueue int `json:"fetch_queue,omitempty"`
	IQSize     int `json:"iq_size,omitempty"`
	ROBSize    int `json:"rob_size,omitempty"`
	LSQSize    int `json:"lsq_size,omitempty"`
	// RegMergePorts bounds register-merge value comparisons per cycle.
	RegMergePorts int `json:"reg_merge_ports,omitempty"`
	// SyncPolicy selects the remerge/RST-driven synchronization policy:
	// "fhb" (the paper's mechanism), "hints" (Thread Fusion baseline) or
	// "none". Empty keeps the preset's policy.
	SyncPolicy string `json:"sync_policy,omitempty"`
	// L1KB resizes both L1 caches and L2KB the shared L2 (kilobytes,
	// power of two; Table 4: 64 and 4096). Ways and line size keep their
	// Table 4 values.
	L1KB int `json:"l1_kb,omitempty"`
	L2KB int `json:"l2_kb,omitempty"`
}

// zero reports whether the override changes nothing.
func (o *ConfigOverride) zero() bool {
	return o == nil || *o == ConfigOverride{}
}

// overrideRange bounds one integer knob: 0 always means "keep the preset
// value"; a non-zero setting must land in [lo, hi].
type overrideRange struct {
	name    string
	v       int
	lo, hi  int
	pow2    bool
	applied string // extra requirement text for the error
}

// Validate rejects out-of-range knob values. It is called on every JSON
// decode and on TaskSpec resolution, so a bad override fails at admission
// (or space-spec load) time with a message naming the field, never
// silently and never on a worker.
func (o *ConfigOverride) Validate() error {
	if o == nil {
		return nil
	}
	for _, r := range []overrideRange{
		{name: "fhb_size", v: o.FHBSize, lo: 1, hi: 1024},
		{name: "fetch_width", v: o.FetchWidth, lo: 1, hi: 64},
		{name: "ls_ports", v: o.LSPorts, lo: 1, hi: 16},
		{name: "lvip_size", v: o.LVIPSize, lo: 1, hi: 1 << 20},
		{name: "fetch_queue", v: o.FetchQueue, lo: 1, hi: 4096},
		{name: "iq_size", v: o.IQSize, lo: 1, hi: 4096},
		{name: "rob_size", v: o.ROBSize, lo: 1, hi: 16384},
		{name: "lsq_size", v: o.LSQSize, lo: 1, hi: 4096},
		{name: "reg_merge_ports", v: o.RegMergePorts, lo: 1, hi: 16},
		{name: "l1_kb", v: o.L1KB, lo: 1, hi: 4096, pow2: true},
		{name: "l2_kb", v: o.L2KB, lo: 64, hi: 1 << 20, pow2: true},
	} {
		if r.v == 0 {
			continue
		}
		if r.v < r.lo || r.v > r.hi {
			return fmt.Errorf("sim: config override %s = %d outside %d–%d", r.name, r.v, r.lo, r.hi)
		}
		if r.pow2 && r.v&(r.v-1) != 0 {
			return fmt.Errorf("sim: config override %s = %d is not a power of two", r.name, r.v)
		}
	}
	if o.SyncPolicy != "" {
		if _, err := core.ParseSyncPolicy(o.SyncPolicy); err != nil {
			return fmt.Errorf("sim: config override sync_policy: %w", err)
		}
	}
	return nil
}

// UnmarshalJSON decodes an override strictly: unknown fields and
// out-of-range values are decode-time errors. Space specs and job
// submissions are user-authored, so a misspelled knob must not be
// silently dropped (the simulation would quietly measure the wrong
// machine).
func (o *ConfigOverride) UnmarshalJSON(b []byte) error {
	type plain ConfigOverride // no methods: avoids recursing into this decoder
	var p plain
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("sim: config override: %w", err)
	}
	*o = ConfigOverride(p)
	return o.Validate()
}

// apply folds the overrides into a resolved configuration. The override
// must have passed Validate; apply itself never fails.
func (o *ConfigOverride) apply(c *core.Config) {
	if o.FHBSize > 0 {
		c.FHBSize = o.FHBSize
	}
	if o.FetchWidth > 0 {
		c.FetchWidth = o.FetchWidth
	}
	if o.LSPorts > 0 {
		c.LSPorts = o.LSPorts
		c.Mem.MSHRs = 4 * o.LSPorts
	}
	if o.MaxInsts > 0 {
		c.MaxInsts = o.MaxInsts
	}
	if o.LVIPSize > 0 {
		c.LVIPSize = o.LVIPSize
	}
	if o.FetchQueue > 0 {
		c.FetchQueue = o.FetchQueue
	}
	if o.IQSize > 0 {
		c.IQSize = o.IQSize
	}
	if o.ROBSize > 0 {
		c.ROBSize = o.ROBSize
	}
	if o.LSQSize > 0 {
		c.LSQSize = o.LSQSize
	}
	if o.RegMergePorts > 0 {
		c.RegMergePorts = o.RegMergePorts
	}
	if o.SyncPolicy != "" {
		if p, err := core.ParseSyncPolicy(o.SyncPolicy); err == nil {
			c.Sync = p
		}
	}
	if o.L1KB > 0 {
		c.Mem.L1I.SizeBytes = o.L1KB << 10
		c.Mem.L1D.SizeBytes = o.L1KB << 10
	}
	if o.L2KB > 0 {
		c.Mem.L2.SizeBytes = o.L2KB << 10
	}
}

// TaskSpec is the JSON-serializable subset of Task: what a job submission
// on the wire may describe. It cannot express Build/Mutate closures or an
// attached trace recorder — those exist only in-process. Resolve with
// Task; the resolved task's Key is the identity the server, the runner,
// and the persistent cache all share.
type TaskSpec struct {
	// App names the workload (workloads.ByName).
	App string `json:"app"`
	// Equ rebinds `.equ` constants in the workload's assembly source
	// (workloads.App.Override) — the knob for scaling iteration counts.
	Equ map[string]int64 `json:"equ,omitempty"`
	// Preset selects the Table 5 design point; empty means MMT-FXR.
	Preset Preset `json:"preset,omitempty"`
	// Threads is the hardware thread count; 0 means 2.
	Threads int `json:"threads,omitempty"`
	// Profile switches to the §3 trace-alignment study of 2–4 contexts;
	// MaxInsts (at least 1) bounds per-context dynamic instructions for
	// it. A timing simulation leaves MaxInsts unset and bounds its run
	// with Config.MaxInsts.
	Profile  bool `json:"profile,omitempty"`
	MaxInsts int  `json:"max_insts,omitempty"`
	// Attribution requests a per-PC attribution profile embedded in the
	// outcome (timing tasks only; rejected for Profile tasks).
	Attribution bool `json:"attribution,omitempty"`
	// Config optionally adjusts the resolved configuration.
	Config *ConfigOverride `json:"config,omitempty"`
}

// Task resolves the spec into an executable Task, applying defaults
// (MMT-FXR, 2 threads) and validating the workload and preset eagerly so
// a bad submission fails at admission rather than on a worker.
func (s TaskSpec) Task() (Task, error) {
	app, ok := workloads.ByName(s.App)
	if !ok {
		return Task{}, fmt.Errorf("sim: unknown application %q", s.App)
	}
	if len(s.Equ) > 0 {
		app = app.Override(s.Equ)
	}
	if s.Attribution && s.Profile {
		return Task{}, fmt.Errorf("sim: attribution requires a timing simulation, not a trace-alignment profile")
	}
	t := s.named()
	switch {
	case s.Profile && s.MaxInsts < 1:
		return Task{}, fmt.Errorf("sim: a trace-alignment profile needs max_insts of at least 1 (got %d)", s.MaxInsts)
	case s.Profile && (t.Threads < 2 || t.Threads > 4):
		return Task{}, fmt.Errorf("sim: a trace-alignment profile aligns 2–4 contexts (got threads %d)", t.Threads)
	case !s.Profile && s.MaxInsts != 0:
		return Task{}, fmt.Errorf("sim: max_insts bounds trace-alignment profiles only; bound a timing simulation with config.max_insts")
	}
	t.App, t.MaxInsts, t.Attribution = app, s.MaxInsts, s.Attribution
	if ov := s.Config; !ov.zero() {
		// Validate here too: specs built in-process never pass through the
		// strict JSON decoder.
		if err := ov.Validate(); err != nil {
			return Task{}, err
		}
		o := *ov // copy, so the closure does not alias caller memory
		t.Mutate = o.apply
	}
	if !s.Profile {
		// Validates the preset and the machine the override makes of it,
		// so a configuration the core refuses fails at admission.
		cfg, err := t.ResolvedConfig()
		if err != nil {
			return Task{}, err
		}
		if err := cfg.Validate(); err != nil {
			return Task{}, err
		}
	}
	return t, nil
}

// Name returns the resolved task's display label without building the
// workload (for error paths where Task() already failed).
func (s TaskSpec) Name() string { return s.named().Name() }

// named is the task the spec names, with the defaults applied (MMT-FXR,
// 2 threads) and only the workload's name resolved.
func (s TaskSpec) named() Task {
	t := Task{App: workloads.App{Name: s.App}, Preset: s.Preset, Threads: s.Threads, Profile: s.Profile}
	if t.Preset == "" {
		t.Preset = PresetMMTFXR
	}
	if t.Threads == 0 {
		t.Threads = 2
	}
	return t
}

// Validate checks the outcome's shape: exactly one of Result or Profile
// is set, a Result carries its statistics, and an attribution profile
// only ever accompanies a Result (and is internally consistent). Both
// codec directions enforce it, so a torn or hand-edited blob is rejected
// instead of decoding into an empty outcome.
func (o *Outcome) Validate() error {
	switch {
	case o == nil:
		return fmt.Errorf("sim: nil outcome")
	case o.Result != nil && o.Profile != nil:
		return fmt.Errorf("sim: outcome has both a result and a profile")
	case o.Result == nil && o.Profile == nil:
		return fmt.Errorf("sim: outcome has neither a result nor a profile")
	case o.Result != nil && o.Result.Stats == nil:
		return fmt.Errorf("sim: result outcome without statistics")
	case o.Attribution != nil && o.Result == nil:
		return fmt.Errorf("sim: attribution profile without a timing result")
	}
	if o.Attribution != nil {
		if err := o.Attribution.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MarshalOutcome renders the canonical JSON encoding of an outcome — the
// one format shared by the persistent result cache, the serving API, and
// -out files.
func MarshalOutcome(o *Outcome) ([]byte, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(o)
}

// UnmarshalOutcome decodes and validates a canonical outcome blob.
func UnmarshalOutcome(b []byte) (*Outcome, error) {
	var o Outcome
	if err := json.Unmarshal(b, &o); err != nil {
		return nil, fmt.Errorf("sim: decoding outcome: %w", err)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &o, nil
}
