package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"mmt/internal/power"
	"mmt/internal/sim"
)

// StudySchema versions the study artifact; bump on incompatible change.
const StudySchema = 2

// AppResult is one workload's contribution to a point evaluation.
type AppResult struct {
	App          string  `json:"app"`
	IPC          float64 `json:"ipc"`
	EnergyPerJob float64 `json:"energy_per_job"`
	Cycles       uint64  `json:"cycles"`
	Insts        uint64  `json:"insts"`
}

// PointResult is one evaluated (point, rung) pair.
type PointResult struct {
	// ID is the point's canonical identity within the space
	// (Point.ID); Rung the evaluation budget level it ran at.
	ID   string `json:"id"`
	Rung int    `json:"rung"`
	// Config is the exact override evaluated, including the rung's
	// MaxInsts — enough to re-run the point by hand.
	Config sim.ConfigOverride `json:"config"`
	// Objectives aggregates across the study's workloads (IPC geomean,
	// energy/job mean).
	Objectives Objectives  `json:"objectives"`
	PerApp     []AppResult `json:"per_app,omitempty"`
	// Energy is the aggregated per-structure breakdown, in the canonical
	// name-sorted component form.
	Energy []power.Component `json:"energy,omitempty"`
}

// BudgetReport accounts for how the evaluation budget was spent.
type BudgetReport struct {
	// Limit is the -budget cap on (point, rung) evaluations (0 = none).
	Limit int `json:"limit"`
	// Evaluations is how many (point, rung) pairs were simulated —
	// including ones reused from a resumed study, so a resumed artifact
	// accounts identically to a fresh run.
	Evaluations int `json:"evaluations"`
	// Simulations = evaluations × workloads (individual simulator runs).
	Simulations int `json:"simulations"`
	// CommittedInsts sums committed instructions over all simulations —
	// the study's total simulated work.
	CommittedInsts uint64 `json:"committed_insts"`
	// Truncated reports that the budget ran out before the sampler
	// finished (the frontier is over the evaluated subset only).
	Truncated bool `json:"truncated,omitempty"`
}

// Study is the artifact of one exploration: everything needed to
// reproduce, resume, extend or render it. It contains no timestamps, no
// wall-clock data and no host identity, and every collection is in a
// deterministic order — two runs of the same (spec, seed, budget) are
// byte-identical, local or fleet.
type Study struct {
	Schema int `json:"schema"`
	// Space is the spec searched, embedded verbatim.
	Space Spec `json:"space"`
	// Seed drove the sampler.
	Seed uint64 `json:"seed"`
	// Workloads are the applications evaluated (after any -workloads
	// override), in evaluation order.
	Workloads []string `json:"workloads"`
	// Points holds every evaluated (point, rung) pair, rung by rung, in
	// the order each rung attempted them.
	Points []PointResult `json:"points"`
	// Frontier is the Pareto frontier over the highest rung's evaluated
	// points, as sorted point IDs.
	Frontier []string `json:"frontier"`
	// Budget is the spend accounting.
	Budget BudgetReport `json:"budget"`
	// Partial marks a checkpoint of an interrupted study (resumable with
	// -resume); final artifacts have it false.
	Partial bool `json:"partial,omitempty"`
}

// MarshalStudy renders the canonical artifact bytes.
func MarshalStudy(st *Study) ([]byte, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// UnmarshalStudy decodes and validates artifact bytes. Decoding is
// strict: unknown fields mean the artifact is from a different (newer)
// writer and must not be silently reinterpreted.
func UnmarshalStudy(b []byte) (*Study, error) {
	var st Study
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("dse: decoding study: %w", err)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// LoadStudy reads an artifact file.
func LoadStudy(path string) (*Study, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := UnmarshalStudy(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// WriteStudy atomically writes the artifact (tmp + rename), so a crash
// mid-write never leaves a torn file where a resumable checkpoint was.
func WriteStudy(path string, st *Study) error {
	b, err := MarshalStudy(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// maxRung returns the highest rung index any point was evaluated at.
func (st *Study) maxRung() int {
	max := 0
	for i := range st.Points {
		if st.Points[i].Rung > max {
			max = st.Points[i].Rung
		}
	}
	return max
}

// topRungObjectives collects the highest rung's evaluated points.
func (st *Study) topRungObjectives() (ids []string, objs []Objectives) {
	top := st.maxRung()
	for i := range st.Points {
		p := &st.Points[i]
		if p.Rung == top {
			ids = append(ids, p.ID)
			objs = append(objs, p.Objectives)
		}
	}
	return ids, objs
}

// computeFrontier returns the sorted frontier IDs over the top rung.
func (st *Study) computeFrontier() []string {
	ids, objs := st.topRungObjectives()
	front := []string{}
	for _, i := range Frontier(objs) {
		front = append(front, ids[i])
	}
	sort.Strings(front)
	return front
}

// Validate checks internal consistency; in particular the recorded
// frontier must equal the frontier recomputed from the recorded points,
// so a hand-edited or corrupted artifact cannot claim a wrong optimum.
func (st *Study) Validate() error {
	if st.Schema != StudySchema {
		return fmt.Errorf("dse: study schema %d, this binary speaks %d", st.Schema, StudySchema)
	}
	if err := st.Space.Validate(); err != nil {
		return err
	}
	if len(st.Workloads) == 0 {
		return fmt.Errorf("dse: study has no workloads")
	}
	seen := map[string]bool{}
	for i := range st.Points {
		p := &st.Points[i]
		key := fmt.Sprintf("%s@%d", p.ID, p.Rung)
		if seen[key] {
			return fmt.Errorf("dse: study evaluates %s twice", key)
		}
		seen[key] = true
	}
	want := st.computeFrontier()
	if len(want) != len(st.Frontier) {
		return fmt.Errorf("dse: study frontier has %d points, recomputation finds %d",
			len(st.Frontier), len(want))
	}
	for i := range want {
		if st.Frontier[i] != want[i] {
			return fmt.Errorf("dse: study frontier disagrees with its points at %q vs %q",
				st.Frontier[i], want[i])
		}
	}
	return nil
}

// resultByKey indexes a study's results by "id@rung" for resume reuse.
func (st *Study) resultByKey() map[string]*PointResult {
	m := make(map[string]*PointResult, len(st.Points))
	for i := range st.Points {
		p := &st.Points[i]
		m[fmt.Sprintf("%s@%d", p.ID, p.Rung)] = p
	}
	return m
}

// WriteFrontier renders the frontier table for terminals: each member's
// configuration and objectives, IPC-descending, with the paper's Table 4
// design point marked when present.
func (st *Study) WriteFrontier(w io.Writer) {
	paper := st.Space.PaperPointID()
	onFront := map[string]bool{}
	for _, id := range st.Frontier {
		onFront[id] = true
	}
	type row struct {
		id  string
		obj Objectives
	}
	var rows []row
	top := st.maxRung()
	for i := range st.Points {
		p := &st.Points[i]
		if p.Rung == top && onFront[p.ID] {
			rows = append(rows, row{p.ID, p.Objectives})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].obj.IPC != rows[j].obj.IPC {
			return rows[i].obj.IPC > rows[j].obj.IPC
		}
		return rows[i].id < rows[j].id
	})
	fmt.Fprintf(w, "study %s: %d points evaluated, frontier %d\n",
		st.Space.Name, st.Budget.Evaluations, len(st.Frontier))
	if st.Budget.Truncated {
		fmt.Fprintf(w, "  (budget of %d exhausted before the sampler finished)\n", st.Budget.Limit)
	}
	fmt.Fprintf(w, "%-60s %8s %14s\n", "configuration", "IPC", "energy/job pJ")
	for _, r := range rows {
		mark := " "
		if r.id == paper {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-58s %8.3f %14.1f\n", mark, r.id, r.obj.IPC, r.obj.EnergyPerJob)
	}
	if paper != "" {
		if onFront[paper] {
			fmt.Fprintf(w, "* paper design point (Table 4) — on the frontier\n")
		} else {
			fmt.Fprintf(w, "note: paper design point %s is NOT on the frontier\n", paper)
		}
	}
}
