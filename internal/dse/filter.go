package dse

import (
	"fmt"
	"io"
	"sort"

	"mmt/internal/core"
	"mmt/internal/static/absint"
	"mmt/internal/workloads"
)

// StaticFilter is the DSE's one static stage: before spending a
// simulation on a candidate, it scores the candidate with the
// abstract-interpretation cost model (absint.Estimate), so
// successive-halving rung 0 starts from the statically best points.
// Analysis runs once per workload and is shared by every candidate;
// estimates are held sorted by workload name, so every score is
// deterministic regardless of construction order.
type StaticFilter struct {
	// ests is sorted by workload name; scores accumulate in that order,
	// so float accumulation is reproducible.
	ests []*absint.Estimate
}

// NewStaticFilter statically analyzes the named workloads and prepares
// the cost-model estimates behind Score.
func NewStaticFilter(apps []string) (*StaticFilter, error) {
	f := &StaticFilter{}
	names := append([]string(nil), apps...)
	sort.Strings(names)
	for _, name := range names {
		a, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("dse: unknown workload %q", name)
		}
		r, err := absint.AnalyzeApp(a, 2)
		if err != nil {
			return nil, fmt.Errorf("dse: analyzing %s: %w", a.Name, err)
		}
		f.ests = append(f.ests, absint.EstimateOf(r))
	}
	return f, nil
}

// Score ranks a candidate's resolved configuration: the mean predicted
// throughput score across the workloads minus a small energy-rank
// penalty, higher is better. Scores only order candidates within one
// study — they are not IPC.
func (f *StaticFilter) Score(c *core.Config) float64 {
	var tp, en float64
	for _, est := range f.ests {
		t, e := est.Score(c.FHBSize, c.FetchWidth, c.LVIPSize)
		tp += t
		en += e
	}
	n := float64(len(f.ests))
	// The throughput term dominates; the energy term only breaks ties
	// between configurations the model predicts equal merging for.
	return tp/n - 0.01*en/n
}

// rank orders the rung-0 cohort statically best first. A stable sort on
// the pure cost-model score keeps ties in sampler order, so the attempted
// order is a deterministic function of (spec, seed). Under a full budget
// the evaluated SET is unchanged and promotion is content-based, so the
// frontier is byte-identical to an unranked run.
func rank(spec *Spec, apps []string, cohort []Point, progress io.Writer) ([]Point, error) {
	f, err := NewStaticFilter(apps)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(cohort))
	for i := range cohort {
		cfg, err := spec.resolve(&cohort[i].Override)
		if err != nil {
			return nil, err
		}
		scores[i] = f.Score(&cfg)
	}
	idx := make([]int, len(cohort))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	ranked := make([]Point, len(cohort))
	for i, j := range idx {
		ranked[i] = cohort[j]
		fmt.Fprintf(progress, "dse: rank %d: %s (score %.4f)\n", i, cohort[j].ID, scores[j])
	}
	return ranked, nil
}
