package dse

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mmt/internal/core"
	"mmt/internal/obs"
	"mmt/internal/runner"
	"mmt/internal/serve"
	"mmt/internal/sim"
)

// --- Pareto properties -------------------------------------------------

// TestDominatesAntisymmetric: dominance is a strict partial order — a
// point never dominates itself, and two points never dominate each other.
func TestDominatesAntisymmetric(t *testing.T) {
	pts := []Objectives{
		{IPC: 1, EnergyPerJob: 100},
		{IPC: 2, EnergyPerJob: 100},
		{IPC: 1, EnergyPerJob: 50},
		{IPC: 2, EnergyPerJob: 50},
		{IPC: 1, EnergyPerJob: 100}, // duplicate of [0]
	}
	for i, a := range pts {
		if Dominates(a, a) {
			t.Errorf("point %d dominates itself", i)
		}
		for j, b := range pts {
			if Dominates(a, b) && Dominates(b, a) {
				t.Errorf("mutual domination between %d and %d", i, j)
			}
		}
	}
	if !Dominates(pts[3], pts[0]) {
		t.Error("strictly better point does not dominate")
	}
	if Dominates(pts[1], pts[2]) || Dominates(pts[2], pts[1]) {
		t.Error("incomparable points dominate")
	}
	if Dominates(pts[0], pts[4]) || Dominates(pts[4], pts[0]) {
		t.Error("equal points dominate")
	}
}

// TestFrontierMinimal: the frontier holds exactly the non-dominated
// points — no member dominates another, and every excluded point is
// dominated by some member.
func TestFrontierMinimal(t *testing.T) {
	// A deterministic scatter (from the study PRNG, fixed seed).
	rng := newSplitmix64(7)
	objs := make([]Objectives, 40)
	for i := range objs {
		objs[i] = Objectives{
			IPC:          float64(rng.intn(20)) / 4,
			EnergyPerJob: float64(50 + rng.intn(100)),
		}
	}
	front := Frontier(objs)
	if len(front) == 0 {
		t.Fatal("empty frontier of a non-empty set")
	}
	on := map[int]bool{}
	for _, i := range front {
		on[i] = true
	}
	for _, i := range front {
		for _, j := range front {
			if i != j && Dominates(objs[i], objs[j]) {
				t.Errorf("frontier member %d dominates member %d", i, j)
			}
		}
	}
	for i := range objs {
		if on[i] {
			continue
		}
		dominated := false
		for _, j := range front {
			if Dominates(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("excluded point %d is not dominated by any frontier member", i)
		}
	}
}

// --- Sampler determinism ----------------------------------------------

func TestSamplerDeterministic(t *testing.T) {
	spec, ok := Builtin("default")
	if !ok {
		t.Fatal("no default space")
	}
	for _, sampler := range []string{"grid", "random"} {
		spec.Sampler = sampler
		a := sampleOrder(spec, 42)
		b := sampleOrder(spec, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different orders", sampler)
		}
		if len(a) != spec.Size() {
			t.Errorf("%s: order covers %d of %d points", sampler, len(a), spec.Size())
		}
		seen := map[int]bool{}
		for _, i := range a {
			if seen[i] || i < 0 || i >= spec.Size() {
				t.Fatalf("%s: order is not a permutation", sampler)
			}
			seen[i] = true
		}
	}
	spec.Sampler = "random"
	if reflect.DeepEqual(sampleOrder(spec, 1), sampleOrder(spec, 2)) {
		t.Error("random order ignores the seed")
	}
}

// TestPointAtRoundTrip: flat indices decode to distinct IDs and valid
// overrides, and the paper point exists in the default space.
func TestPointAtRoundTrip(t *testing.T) {
	spec, _ := Builtin("default")
	ids := map[string]bool{}
	for i := 0; i < spec.Size(); i++ {
		p, err := spec.PointAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if ids[p.ID] {
			t.Fatalf("duplicate point ID %s", p.ID)
		}
		ids[p.ID] = true
		if err := p.Override.Validate(); err != nil {
			t.Fatalf("%s: invalid override: %v", p.ID, err)
		}
	}
	paper := spec.PaperPointID()
	if paper == "" {
		t.Fatal("default space cannot express the paper design point")
	}
	if !ids[paper] {
		t.Fatalf("paper point %s not among the space's points", paper)
	}

	// Every knob, each with its Table 4 value and one other, in either
	// order: the paper point is read off the preset's configuration, and
	// must name the Table 4 value of every dimension.
	all := &Spec{Name: "all-knobs", Dimensions: []Dimension{
		{Name: "fhb_size", Values: []int{16, 32}},
		{Name: "fetch_width", Values: []int{8, 4}},
		{Name: "ls_ports", Values: []int{4, 2}},
		{Name: "lvip_size", Values: []int{4096, 1024}},
		{Name: "fetch_queue", Values: []int{16, 32}},
		{Name: "iq_size", Values: []int{64, 32}},
		{Name: "rob_size", Values: []int{128, 256}},
		{Name: "lsq_size", Values: []int{64, 32}},
		{Name: "reg_merge_ports", Values: []int{1, 2}},
		{Name: "sync_policy", Strings: []string{"fhb", "hints"}},
		{Name: "l1_kb", Values: []int{32, 64}},
		{Name: "l2_kb", Values: []int{4096, 2048}},
	}}
	if err := all.Validate(); err != nil {
		t.Fatal(err)
	}
	const table4 = "fhb_size=32,fetch_width=8,ls_ports=2,lvip_size=4096,fetch_queue=32,iq_size=64," +
		"rob_size=256,lsq_size=64,reg_merge_ports=2,sync_policy=fhb,l1_kb=64,l2_kb=4096"
	if got := all.PaperPointID(); got != table4 {
		t.Errorf("paper point of the all-knob space:\n got %s\nwant %s", got, table4)
	}
	// A dimension without its Table 4 value leaves no paper point.
	all.Dimensions[0].Values = []int{16, 64}
	if got := all.PaperPointID(); got != "" {
		t.Errorf("space without fhb_size=32 names paper point %s", got)
	}
}

// --- Spec validation ---------------------------------------------------

func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{"name":"x","dimensions":[{"name":"warp_size","values":[32]}]}`,         // unknown knob
		`{"name":"x","dimensions":[{"name":"fhb_size","values":[0]}]}`,           // out of range
		`{"name":"x","dimensions":[{"name":"fhb_size","strings":["big"]}]}`,      // wrong kind
		`{"name":"x","dimensions":[{"name":"sync_policy","values":[1]}]}`,        // wrong kind
		`{"name":"x","dimensions":[{"name":"fhb_size","values":[8]}],"bogus":1}`, // unknown field
		`{"name":"x","sampler":"anneal","dimensions":[{"name":"fhb_size","values":[8]}]}`,
		`{"name":"x","sampler":"halving","dimensions":[{"name":"fhb_size","values":[8]}]}`, // no rungs
		`{"name":"x","sampler":"halving","rungs":[100,100],"dimensions":[{"name":"fhb_size","values":[8]}]}`,
		`{"name":"x","workloads":["no-such-app"],"dimensions":[{"name":"fhb_size","values":[8]}]}`,
		`{"name":"x","dimensions":[{"name":"fhb_size","values":[8]},{"name":"fhb_size","values":[16]}]}`,
		`{"name":"x","dimensions":[{"name":"rob_size","values":[1]}]}`,      // window below the thread count
		`{"name":"x","dimensions":[{"name":"max_insts","values":[1000]}]}`,  // the rungs own the budget
		`{"name":"x","dimensions":[{"name":"sync_policy","strings":[""]}]}`, // "" keeps the preset
	}
	for _, c := range bad {
		if _, err := ParseSpec([]byte(c)); err == nil {
			t.Errorf("accepted invalid spec %s", c)
		}
	}
	for _, name := range Builtins() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
	}
}

// --- Static filter -----------------------------------------------------

// TestStaticFilterOrderInsensitive: the filter holds per-app estimates
// sorted by name, so construction order cannot leak into scores.
func TestStaticFilterOrderInsensitive(t *testing.T) {
	f1, err := NewStaticFilter([]string{"libsvm", "twolf", "equake"})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewStaticFilter([]string{"twolf", "equake", "libsvm"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Name: "order-test"}
	for _, o := range []sim.ConfigOverride{
		{FHBSize: 4, FetchWidth: 2},
		{FHBSize: 32, FetchWidth: 8, LVIPSize: 1024},
		{FHBSize: 256, FetchWidth: 8},
	} {
		c, err := spec.resolve(&o)
		if err != nil {
			t.Fatal(err)
		}
		if s1, s2 := f1.Score(&c), f2.Score(&c); s1 != s2 {
			t.Errorf("score depends on construction order: %v vs %v", s1, s2)
		}
	}
}

// rankedSpec is a halving space with enough spread for the ranker to
// reorder rung 0.
func rankedSpec(rank bool) *Spec {
	return &Spec{
		Name:    "rank-test",
		Sampler: "halving",
		Rungs:   []uint64{1000, 2000},
		Eta:     2,
		Dimensions: []Dimension{
			{Name: "fhb_size", Values: []int{2, 8, 32, 128}},
			{Name: "fetch_width", Values: []int{2, 8}},
		},
		Rank: rank,
	}
}

// TestRankedFrontierIdentity is the acceptance property of the static
// ranker: under a full budget it must produce a byte-identical frontier
// to the unranked run of the same (spec, seed, budget) while evaluating
// exactly as many points — ranking reorders rung 0, it never changes
// what is evaluated or what survives.
func TestRankedFrontierIdentity(t *testing.T) {
	run := func(rank bool) *Study {
		st, err := Search(context.Background(), Options{
			Spec: rankedSpec(rank), Seed: 3, Backend: newCountingBackend(),
			Workloads: []string{"libsvm"}, Concurrency: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain, ranked := run(false), run(true)
	if got, want := fmt.Sprint(ranked.Frontier), fmt.Sprint(plain.Frontier); got != want {
		t.Errorf("ranked frontier %s differs from unranked %s", got, want)
	}
	if ranked.Budget.Evaluations != plain.Budget.Evaluations {
		t.Errorf("ranked run evaluated %d points, unranked %d",
			ranked.Budget.Evaluations, plain.Budget.Evaluations)
	}
	// Same evaluated sets per rung, possibly in a different order.
	sets := func(st *Study) map[int][]string {
		m := map[int][]string{}
		for i := range st.Points {
			p := &st.Points[i]
			m[p.Rung] = append(m[p.Rung], p.ID)
		}
		for r := range m {
			sort.Strings(m[r])
		}
		return m
	}
	sp, sr := sets(plain), sets(ranked)
	if len(sp) != len(sr) {
		t.Fatalf("rung counts differ: %d vs %d", len(sp), len(sr))
	}
	for r := range sp {
		if fmt.Sprint(sp[r]) != fmt.Sprint(sr[r]) {
			t.Errorf("rung %d evaluated sets differ:\nunranked %v\nranked   %v", r, sp[r], sr[r])
		}
	}
}

// TestRankedStudyByteIdentity: with the ranker on, repeated runs of the
// same (spec, seed, budget) still produce byte-identical artifacts.
func TestRankedStudyByteIdentity(t *testing.T) {
	run := func() []byte {
		st, err := Search(context.Background(), Options{
			Spec: rankedSpec(true), Seed: 9, Backend: newCountingBackend(),
			Workloads: []string{"libsvm", "twolf"}, Concurrency: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalStudy(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b1, b2 := run(), run(); string(b1) != string(b2) {
		t.Error("two ranked runs differ byte for byte")
	}
}

// --- Successive halving budget accounting ------------------------------

// countingBackend fabricates outcomes without simulating, recording how
// many evaluations ran; IPC is derived from the FHB size so promotion is
// deterministic and observable.
type countingBackend struct {
	mu   chan struct{} // 1-token semaphore; avoids importing sync here
	runs []sim.TaskSpec
}

func newCountingBackend() *countingBackend {
	b := &countingBackend{mu: make(chan struct{}, 1)}
	b.mu <- struct{}{}
	return b
}

func (b *countingBackend) Run(_ context.Context, spec sim.TaskSpec) (*sim.Outcome, error) {
	<-b.mu
	b.runs = append(b.runs, spec)
	b.mu <- struct{}{}
	task, err := spec.Task()
	if err != nil {
		return nil, err
	}
	cfg, err := task.ResolvedConfig()
	if err != nil {
		return nil, err
	}
	res := &sim.Result{App: spec.App, Preset: task.Preset, Threads: task.Threads,
		Stats: fabStats(uint64(cfg.FHBSize))}
	return &sim.Outcome{Result: res}, nil
}

func (b *countingBackend) Name() string { return "counting" }

// TestHalvingBudgetAccounting: rung cohort sizes follow ceil(n/eta), the
// budget report tallies every (point,rung) evaluation and simulation, and
// exhausting the budget truncates instead of overrunning.
func TestHalvingBudgetAccounting(t *testing.T) {
	spec := &Spec{
		Name:    "halv-test",
		Sampler: "halving",
		Rungs:   []uint64{1000, 2000, 4000},
		Eta:     2,
		Dimensions: []Dimension{
			{Name: "fhb_size", Values: []int{2, 4, 8, 16, 32, 64, 128, 256}},
		},
	}
	be := newCountingBackend()
	st, err := Search(context.Background(), Options{
		Spec: spec, Seed: 1, Backend: be, Workloads: []string{"libsvm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 points at rung 0, ceil(8/2)=4 at rung 1, ceil(4/2)=2 at rung 2.
	wantEvals := 8 + 4 + 2
	if st.Budget.Evaluations != wantEvals {
		t.Errorf("evaluations = %d, want %d", st.Budget.Evaluations, wantEvals)
	}
	if st.Budget.Simulations != wantEvals {
		t.Errorf("simulations = %d, want %d (one workload)", st.Budget.Simulations, wantEvals)
	}
	if len(be.runs) != wantEvals {
		t.Errorf("backend ran %d times, want %d", len(be.runs), wantEvals)
	}
	if st.Budget.Truncated {
		t.Error("unbounded search reported truncation")
	}
	perRung := map[int]int{}
	for i := range st.Points {
		perRung[st.Points[i].Rung]++
	}
	if perRung[0] != 8 || perRung[1] != 4 || perRung[2] != 2 {
		t.Errorf("rung cohort sizes %v, want 8/4/2", perRung)
	}
	// Promotion kept the highest-IPC (largest FHB in the fabricated
	// model) configurations.
	for i := range st.Points {
		p := &st.Points[i]
		if p.Rung == 2 && p.Config.FHBSize < 128 {
			t.Errorf("rung 2 kept %s over a higher-IPC point", p.ID)
		}
	}

	// A budget smaller than the full schedule truncates cleanly.
	be2 := newCountingBackend()
	st2, err := Search(context.Background(), Options{
		Spec: spec, Seed: 1, Budget: 10, Backend: be2, Workloads: []string{"libsvm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Budget.Evaluations != 10 || !st2.Budget.Truncated {
		t.Errorf("budget 10: evaluated %d, truncated %v", st2.Budget.Evaluations, st2.Budget.Truncated)
	}
	if len(be2.runs) != 10 {
		t.Errorf("budget 10: backend ran %d times", len(be2.runs))
	}
}

// fabStats fabricates a Stats whose IPC grows with quality.
func fabStats(quality uint64) *core.Stats {
	st := &core.Stats{Cycles: 1000}
	st.Committed[0] = 100 * quality
	st.Committed[1] = 100 * quality
	return st
}

// --- End-to-end: local vs server byte identity, paper point -------------

// smokeOptions returns a tiny 2-workload study of the smoke space.
func smokeStudy(t *testing.T, be Backend, metrics *obs.Registry) *Study {
	t.Helper()
	spec, _ := Builtin("smoke")
	st, err := Search(context.Background(), Options{
		Spec:        spec,
		Seed:        7,
		Backend:     be,
		Workloads:   []string{"libsvm", "twolf"},
		Concurrency: 4,
		Metrics:     metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStudyByteIdentityLocalVsServer is the acceptance property: the same
// (spec, seed, budget) must produce byte-identical artifacts across runs
// AND across backends — the local pool and a live server fleet.
func TestStudyByteIdentityLocalVsServer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; short mode")
	}
	ctx := context.Background()
	mkLocal := func() *LocalBackend {
		be, err := NewLocalBackend(ctx, runner.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return be
	}

	local1 := mkLocal()
	reg := obs.NewRegistry()
	st1 := smokeStudy(t, local1, reg)
	local1.Close()
	b1, err := MarshalStudy(st1)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg.Counter("mmt_dse_points_evaluated_total", "").Value(); c != 4 {
		t.Errorf("metrics counted %d evaluations, want 4", c)
	}

	local2 := mkLocal()
	st2 := smokeStudy(t, local2, nil)
	local2.Close()
	b2, err := MarshalStudy(st2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("two local runs differ byte for byte")
	}

	// Same study through a live server.
	s, err := serve.New(ctx, serve.Options{Runner: runner.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer func() {
		hs.Close()
		s.Close()
	}()
	st3 := smokeStudy(t, NewServerBackend(hs.URL), nil)
	b3, err := MarshalStudy(st3)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b3) {
		t.Error("server-backed study differs from local study byte for byte")
	}

	// The artifact round-trips through its own codec.
	back, err := UnmarshalStudy(b1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := MarshalStudy(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b4) {
		t.Error("artifact changed across a codec round trip")
	}
}

// TestPaperPointOnFrontier: in a sweep where every dimension tops out at
// the paper's Table 4 value, the paper design point is the highest-IPC
// configuration and must be a frontier member.
func TestPaperPointOnFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates; short mode")
	}
	ctx := context.Background()
	spec := &Spec{
		Name:     "paper-check",
		MaxInsts: 20_000,
		Dimensions: []Dimension{
			{Name: "fhb_size", Values: []int{8, 32}},
			{Name: "fetch_width", Values: []int{4, 8}},
			{Name: "lvip_size", Values: []int{1024, 4096}},
			{Name: "sync_policy", Strings: []string{"hints", "fhb"}},
		},
	}
	be, err := NewLocalBackend(ctx, runner.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	st, err := Search(ctx, Options{
		Spec: spec, Seed: 1, Backend: be,
		Workloads:   []string{"libsvm", "twolf"},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	paper := spec.PaperPointID()
	if paper == "" {
		t.Fatal("space cannot express the paper point")
	}
	found := false
	for _, id := range st.Frontier {
		if id == paper {
			found = true
		}
	}
	if !found {
		t.Errorf("paper design point %s not on frontier %v", paper, st.Frontier)
	}
}

// TestResumeProducesIdenticalArtifact: interrupting a halving study after
// its checkpoint and resuming must end in the exact bytes of an
// uninterrupted run, with identical budget accounting.
func TestResumeProducesIdenticalArtifact(t *testing.T) {
	spec := &Spec{
		Name:    "resume-test",
		Sampler: "halving",
		Rungs:   []uint64{1000, 2000},
		Dimensions: []Dimension{
			{Name: "fhb_size", Values: []int{2, 4, 8, 16}},
		},
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if _, err := Search(context.Background(), Options{
		Spec: spec, Seed: 3, Backend: newCountingBackend(),
		Workloads: []string{"libsvm"}, CheckpointPath: full,
	}); err != nil {
		t.Fatal(err)
	}

	// "Interrupt": run rung 0 only by capping the budget at the rung size,
	// then resume from the checkpoint with the full budget.
	part := filepath.Join(dir, "part.json")
	if _, err := Search(context.Background(), Options{
		Spec: spec, Seed: 3, Budget: 4, Backend: newCountingBackend(),
		Workloads: []string{"libsvm"}, CheckpointPath: part,
	}); err != nil {
		t.Fatal(err)
	}
	partial, err := LoadStudy(part)
	if err != nil {
		t.Fatal(err)
	}
	resumed := filepath.Join(dir, "resumed.json")
	be := newCountingBackend()
	if _, err := Search(context.Background(), Options{
		Spec: spec, Seed: 3, Backend: be, Resume: partial,
		Workloads: []string{"libsvm"}, CheckpointPath: resumed,
	}); err != nil {
		t.Fatal(err)
	}
	// Only the second rung simulated fresh.
	if len(be.runs) != 2 {
		t.Errorf("resume re-ran %d evaluations, want 2 (rung 1 only)", len(be.runs))
	}
	fullSt, err := LoadStudy(full)
	if err != nil {
		t.Fatal(err)
	}
	resumedSt, err := LoadStudy(resumed)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := MarshalStudy(fullSt)
	rb, _ := MarshalStudy(resumedSt)
	if string(fb) != string(rb) {
		t.Error("resumed study differs from uninterrupted study byte for byte")
	}
}

// TestStudyValidateRejectsTamperedFrontier: an artifact whose frontier
// disagrees with its own points must not load.
func TestStudyValidateRejectsTamperedFrontier(t *testing.T) {
	spec := &Spec{
		Name:       "tamper-test",
		Dimensions: []Dimension{{Name: "fhb_size", Values: []int{2, 4}}},
	}
	st, err := Search(context.Background(), Options{
		Spec: spec, Seed: 1, Backend: newCountingBackend(), Workloads: []string{"libsvm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	st.Frontier = append(st.Frontier, "fhb_size=2")
	if _, err := MarshalStudy(st); err == nil {
		t.Error("marshaled a study with a padded frontier")
	}
	if _, err := UnmarshalStudy(b); err != nil {
		t.Errorf("valid artifact rejected: %v", err)
	}
}

// renderSmokeTable exercises WriteFrontier (no assertions beyond not
// exploding and naming the paper point when present).
func TestWriteFrontierRenders(t *testing.T) {
	spec := &Spec{
		Name:       "render-test",
		Dimensions: []Dimension{{Name: "fhb_size", Values: []int{8, 16, 32}}},
	}
	st, err := Search(context.Background(), Options{
		Spec: spec, Seed: 1, Backend: newCountingBackend(), Workloads: []string{"libsvm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	st.WriteFrontier(&sb)
	out := sb.String()
	if out == "" {
		t.Fatal("empty render")
	}
	if want := "fhb_size=32"; !strings.Contains(out, want) {
		t.Errorf("render lacks the best point %s:\n%s", want, out)
	}
	if !strings.Contains(out, "paper design point") {
		t.Errorf("render does not mark the paper point:\n%s", out)
	}
}
