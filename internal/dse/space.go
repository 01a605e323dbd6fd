// Package dse is the automated design-space explorer: the brain on top of
// the execution muscle the repo already has. A declarative Spec names the
// core configuration dimensions to search (FHB size, fetch width, LVIP
// size, queue depths, sync policy, cache geometry — every knob
// sim.ConfigOverride can express), deterministic seeded samplers (grid,
// random, successive halving) enumerate candidate points, an optional
// static ranker built on absint's cost model orders the first rung
// statically best first, and a two-objective evaluator (IPC up, energy per
// job down, from internal/power) maintains the Pareto frontier. Evaluation
// runs through a pluggable Backend — the local runner.Pool or a live
// mmtserved/mmtrouter fleet — inheriting content-addressed dedup, caching,
// retries and tracing for free. The product is a canonical, byte-stable
// study artifact (internal/dse/study.go) that cmd/mmtdse writes, resumes
// and renders.
package dse

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mmt/internal/core"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// Dimension is one axis of the search space: a sim.ConfigOverride knob,
// by its wire name, plus the candidate values to try. Integer knobs list
// Values, string knobs (sync_policy) list Strings; exactly one must be set.
type Dimension struct {
	Name    string   `json:"name"`
	Values  []int    `json:"values,omitempty"`
	Strings []string `json:"strings,omitempty"`
}

// n returns the dimension's cardinality.
func (d *Dimension) n() int {
	if len(d.Values) > 0 {
		return len(d.Values)
	}
	return len(d.Strings)
}

// value returns candidate i as its JSON value.
func (d *Dimension) value(i int) any {
	if len(d.Values) > 0 {
		return d.Values[i]
	}
	return d.Strings[i]
}

// render returns candidate i as its canonical string form.
func (d *Dimension) render(i int) string { return fmt.Sprint(d.value(i)) }

// decodeOverride turns an assignment {knob: value} into an override
// through sim's strict ConfigOverride decoder — the one every job
// submission goes through — so a space can name exactly the knobs, value
// types and ranges a submission can.
func decodeOverride(assign map[string]any) (sim.ConfigOverride, error) {
	var o sim.ConfigOverride
	b, err := json.Marshal(assign)
	if err != nil {
		return o, err
	}
	err = json.Unmarshal(b, &o)
	return o, err
}

// Spec declares one search space: the machine presets held fixed, the
// dimensions swept, the sampler, and the per-point simulation budget. It
// is embedded verbatim in the study artifact, so a study is reproducible
// from its own bytes.
type Spec struct {
	Name string `json:"name"`
	// Preset is the Table 5 design point every candidate starts from
	// (default MMT-FXR); Threads the hardware thread count (default 2).
	Preset  sim.Preset `json:"preset,omitempty"`
	Threads int        `json:"threads,omitempty"`
	// Sampler selects the search strategy: "grid" (exhaustive, in
	// lexicographic dimension order), "random" (seeded shuffle of the
	// grid) or "halving" (successive halving over Rungs). Default grid.
	Sampler string `json:"sampler,omitempty"`
	// MaxInsts bounds per-thread committed instructions for every
	// evaluation of a single-rung sampler (0 = run workloads to
	// completion).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// Rungs are the ascending MaxInsts budgets of successive halving:
	// every candidate runs at Rungs[0]; survivors are promoted to longer
	// budgets. Required for (and only meaningful with) the halving
	// sampler.
	Rungs []uint64 `json:"rungs,omitempty"`
	// Eta is the halving promotion divisor: the top 1/Eta of a rung's
	// cohort (by Pareto rank) advances. Default 2.
	Eta int `json:"eta,omitempty"`
	// Workloads restricts the evaluation to these applications (default:
	// the paper's sixteen kernels). The -workloads flag overrides it.
	Workloads []string `json:"workloads,omitempty"`
	// Dimensions are the swept axes.
	Dimensions []Dimension `json:"dimensions"`
	// Rank orders the rung-0 cohort by absint's static cost model,
	// statically best first (see filter.go). Ranking never changes which
	// points are evaluated under a full budget — only the order they are
	// attempted in — so frontiers are unchanged; under a truncating budget
	// the surviving prefix is the statically best one.
	Rank bool `json:"rank,omitempty"`
}

// Validate checks the spec: known sampler, ascending rungs, and
// dimensions whose every value decodes through the override codec and
// resolves, with the spec's preset and threads, to a machine the core
// accepts — so space files and job submissions share one notion of
// validity.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dse: space has no name")
	}
	switch s.Sampler {
	case "", "grid", "random", "halving":
	default:
		return fmt.Errorf("dse: space %s: unknown sampler %q (want grid, random or halving)", s.Name, s.Sampler)
	}
	if s.Sampler == "halving" && len(s.Rungs) == 0 {
		return fmt.Errorf("dse: space %s: halving sampler needs rungs", s.Name)
	}
	if s.Sampler != "halving" && len(s.Rungs) > 0 {
		return fmt.Errorf("dse: space %s: rungs are only meaningful with the halving sampler", s.Name)
	}
	for i := 1; i < len(s.Rungs); i++ {
		if s.Rungs[i] <= s.Rungs[i-1] {
			return fmt.Errorf("dse: space %s: rungs must strictly ascend (rung %d: %d after %d)",
				s.Name, i, s.Rungs[i], s.Rungs[i-1])
		}
	}
	if s.Eta < 0 || s.Eta == 1 {
		return fmt.Errorf("dse: space %s: eta must be >= 2", s.Name)
	}
	if len(s.Dimensions) == 0 {
		return fmt.Errorf("dse: space %s: no dimensions", s.Name)
	}
	// The preset and thread count must resolve.
	if _, err := s.resolve(nil); err != nil {
		return fmt.Errorf("dse: space %s: %w", s.Name, err)
	}
	seen := map[string]bool{}
	for di := range s.Dimensions {
		d := &s.Dimensions[di]
		if seen[d.Name] {
			return fmt.Errorf("dse: space %s: duplicate dimension %q", s.Name, d.Name)
		}
		seen[d.Name] = true
		if d.Name == "max_insts" {
			return fmt.Errorf("dse: space %s: max_insts is not a dimension: the rungs set each evaluation's budget", s.Name)
		}
		if (len(d.Values) > 0) == (len(d.Strings) > 0) {
			return fmt.Errorf("dse: space %s: dimension %q must set exactly one of values or strings", s.Name, d.Name)
		}
		// Zero (and the empty string) mean "keep the preset value" in the
		// override codec, so they are not legal sweep values.
		for i := 0; i < d.n(); i++ {
			if v := d.value(i); v == 0 || v == "" {
				return fmt.Errorf("dse: space %s: dimension %q value %q is not a sweepable value",
					s.Name, d.Name, d.render(i))
			}
			if _, err := s.valueConfig(d, i); err != nil {
				return fmt.Errorf("dse: space %s: dimension %q value %s: %w", s.Name, d.Name, d.render(i), err)
			}
		}
	}
	for _, name := range s.Workloads {
		if _, ok := workloads.ByName(name); !ok {
			return fmt.Errorf("dse: space %s: unknown workload %q", s.Name, name)
		}
	}
	return nil
}

// resolve returns the machine an override simulates under the spec's
// preset and thread count, resolved and validated exactly as a job
// submission of it is; nil resolves the unmodified preset. The workload
// only names the probe task: the machine does not depend on it.
func (s *Spec) resolve(o *sim.ConfigOverride) (core.Config, error) {
	t, err := sim.TaskSpec{App: workloads.Names()[0], Preset: s.Preset, Threads: s.Threads, Config: o}.Task()
	if err != nil {
		return core.Config{}, err
	}
	return t.ResolvedConfig()
}

// valueConfig resolves candidate i of dimension d set on its own.
func (s *Spec) valueConfig(d *Dimension, i int) (core.Config, error) {
	o, err := decodeOverride(map[string]any{d.Name: d.value(i)})
	if err != nil {
		return core.Config{}, err
	}
	return s.resolve(&o)
}

// Size returns the number of points in the space (the product of the
// dimension cardinalities).
func (s *Spec) Size() int {
	n := 1
	for i := range s.Dimensions {
		n *= s.Dimensions[i].n()
	}
	return n
}

// SamplerName returns the effective sampler ("grid" when unset).
func (s *Spec) SamplerName() string {
	if s.Sampler == "" {
		return "grid"
	}
	return s.Sampler
}

// rungs returns the evaluation budgets: the spec's halving rungs, or the
// single MaxInsts rung.
func (s *Spec) rungs() []uint64 {
	if len(s.Rungs) > 0 {
		return s.Rungs
	}
	return []uint64{s.MaxInsts}
}

// eta returns the effective promotion divisor.
func (s *Spec) eta() int {
	if s.Eta == 0 {
		return 2
	}
	return s.Eta
}

// Point is one candidate configuration: an assignment of every dimension.
type Point struct {
	// ID is the canonical identity: "name=value" pairs in dimension
	// order. It keys resume reuse and the frontier.
	ID string
	// Override is the assignment as a config override (without the
	// rung's MaxInsts budget, which the engine adds per evaluation).
	Override sim.ConfigOverride
}

// PointAt decodes flat index idx (0 <= idx < Size) into a point. The
// first dimension is the most significant digit, so grid order sweeps the
// last dimension fastest.
func (s *Spec) PointAt(idx int) (Point, error) {
	assign := make(map[string]any, len(s.Dimensions))
	parts := make([]string, len(s.Dimensions))
	rem := idx
	for di := len(s.Dimensions) - 1; di >= 0; di-- {
		d := &s.Dimensions[di]
		vi := rem % d.n()
		rem /= d.n()
		assign[d.Name] = d.value(vi)
		parts[di] = d.Name + "=" + d.render(vi)
	}
	id := strings.Join(parts, ",")
	o, err := decodeOverride(assign)
	if err != nil {
		return Point{}, fmt.Errorf("dse: space %s: point %s: %w", s.Name, id, err)
	}
	return Point{ID: id, Override: o}, nil
}

// PaperPointID returns the ID of the space's design point: the
// assignment picking, in every dimension, the value that resolves to the
// unmodified preset's configuration — the paper's Table 4 machine for the
// default MMT-FXR preset. It returns "" when some dimension does not
// offer that value (the space cannot express the preset's machine).
func (s *Spec) PaperPointID() string {
	base, err := s.resolve(nil)
	if err != nil {
		return ""
	}
	parts := make([]string, len(s.Dimensions))
	for di := range s.Dimensions {
		d := &s.Dimensions[di]
		for i := 0; i < d.n() && parts[di] == ""; i++ {
			if c, err := s.valueConfig(d, i); err == nil && c == base {
				parts[di] = d.Name + "=" + d.render(i)
			}
		}
		if parts[di] == "" {
			return ""
		}
	}
	return strings.Join(parts, ",")
}

// Builtins lists the compiled-in space names.
func Builtins() []string { return []string{"default", "smoke", "halving"} }

// Builtin returns a compiled-in space by name.
func Builtin(name string) (*Spec, bool) {
	switch name {
	case "default":
		// The Fig. 7-inspired sweep around the paper's design point: every
		// dimension includes its Table 4 value, so the study rediscovers
		// the paper's machine as the frontier's throughput corner — and
		// cheaper frontier members beside it. FHB size is deliberately NOT
		// swept here (the halving builtin sweeps it): on the sixteen short
		// kernels a 16-entry FHB Pareto-dominates the paper's 32 entries,
		// which is a finding about the kernels, not a default to bury it in.
		return &Spec{
			Name:     "default",
			Sampler:  "grid",
			MaxInsts: 200_000,
			Dimensions: []Dimension{
				{Name: "fetch_width", Values: []int{4, 8}},
				{Name: "lvip_size", Values: []int{1024, 4096}},
				{Name: "sync_policy", Strings: []string{"hints", "fhb"}},
				{Name: "iq_size", Values: []int{32, 64}},
			},
		}, true
	case "smoke":
		// Tiny, fast, deterministic: CI's byte-identity check and quick
		// local experiments.
		return &Spec{
			Name:     "smoke",
			Sampler:  "grid",
			MaxInsts: 20_000,
			Dimensions: []Dimension{
				{Name: "fhb_size", Values: []int{8, 32}},
				{Name: "fetch_width", Values: []int{4, 8}},
			},
		}, true
	case "halving":
		// A wider space only successive halving can afford: cheap first
		// rung over everything, survivors promoted to 9x the budget.
		return &Spec{
			Name:    "halving",
			Sampler: "halving",
			Rungs:   []uint64{20_000, 60_000, 180_000},
			Eta:     3,
			Dimensions: []Dimension{
				{Name: "fhb_size", Values: []int{4, 8, 16, 32, 64}},
				{Name: "fetch_width", Values: []int{2, 4, 8}},
				{Name: "lvip_size", Values: []int{256, 1024, 4096}},
				{Name: "rob_size", Values: []int{128, 256}},
			},
			Rank: true,
		}, true
	}
	return nil, false
}

// LoadSpec resolves -space: a builtin name, or a JSON file. File specs
// decode strictly — unknown fields are errors, like every other
// user-authored input in the system.
func LoadSpec(nameOrPath string) (*Spec, error) {
	if s, ok := Builtin(nameOrPath); ok {
		return s, s.Validate()
	}
	b, err := os.ReadFile(nameOrPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("dse: %q is neither a builtin space (%s) nor a readable file",
				nameOrPath, strings.Join(Builtins(), ", "))
		}
		return nil, err
	}
	s, err := ParseSpec(b)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", nameOrPath, err)
	}
	return s, nil
}

// ParseSpec decodes and validates a JSON space spec.
func ParseSpec(b []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding space spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
