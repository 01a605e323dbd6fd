package sim

import (
	"testing"

	"mmt/internal/trace"
	"mmt/internal/workloads"
)

// goldenProfiles holds every kernel's exact two-context trace-alignment
// profile at ProfileInsts, the points behind Figs. 1–2. BENCH rows for
// profile tasks carry no result fields and the report prints rounded
// percentages, so this table is what pins the aligner's output.
var goldenProfiles = []struct {
	app  string
	want trace.Profile
}{
	{"libsvm", trace.Profile{ExecuteIdentical: 10540, FetchIdentical: 5714, NotIdentical: 1, Divergences: 1, LenDiff: [7]uint64{1, 0, 0, 0, 0, 0, 0}}},
	{"ammp", trace.Profile{ExecuteIdentical: 81286, FetchIdentical: 2248, NotIdentical: 18, Divergences: 18, LenDiff: [7]uint64{18, 0, 0, 0, 0, 0, 0}}},
	{"twolf", trace.Profile{ExecuteIdentical: 9610, FetchIdentical: 54174, NotIdentical: 2484, Divergences: 621, LenDiff: [7]uint64{621, 0, 0, 0, 0, 0, 0}}},
	{"vortex", trace.Profile{ExecuteIdentical: 2248, FetchIdentical: 163242, NotIdentical: 5056, Divergences: 464, LenDiff: [7]uint64{462, 1, 1, 0, 0, 0, 0}}},
	{"vpr", trace.Profile{ExecuteIdentical: 9180, FetchIdentical: 44128, NotIdentical: 1314, Divergences: 657, LenDiff: [7]uint64{657, 0, 0, 0, 0, 0, 0}}},
	{"equake", trace.Profile{ExecuteIdentical: 48060, FetchIdentical: 210, NotIdentical: 960, Divergences: 8, LenDiff: [7]uint64{0, 8, 0, 0, 0, 0, 0}}},
	{"mcf", trace.Profile{ExecuteIdentical: 43518, FetchIdentical: 1518, NotIdentical: 28, Divergences: 14, LenDiff: [7]uint64{14, 0, 0, 0, 0, 0, 0}}},
	{"ocean", trace.Profile{ExecuteIdentical: 54290, FetchIdentical: 47984, NotIdentical: 2, Divergences: 1, LenDiff: [7]uint64{1, 0, 0, 0, 0, 0, 0}}},
	{"lu", trace.Profile{ExecuteIdentical: 20202, FetchIdentical: 19532, NotIdentical: 0, Divergences: 0, LenDiff: [7]uint64{0, 0, 0, 0, 0, 0, 0}}},
	{"fft", trace.Profile{ExecuteIdentical: 12502, FetchIdentical: 16424, NotIdentical: 5, Divergences: 1, LenDiff: [7]uint64{1, 0, 0, 0, 0, 0, 0}}},
	{"water-ns", trace.Profile{ExecuteIdentical: 273172, FetchIdentical: 39388, NotIdentical: 24, Divergences: 6, LenDiff: [7]uint64{6, 0, 0, 0, 0, 0, 0}}},
	{"water-sp", trace.Profile{ExecuteIdentical: 27722, FetchIdentical: 13802, NotIdentical: 5444, Divergences: 364, LenDiff: [7]uint64{363, 0, 0, 1, 0, 0, 0}}},
	{"swaptions", trace.Profile{ExecuteIdentical: 20534, FetchIdentical: 5040, NotIdentical: 0, Divergences: 0, LenDiff: [7]uint64{0, 0, 0, 0, 0, 0, 0}}},
	{"fluidanimate", trace.Profile{ExecuteIdentical: 18718, FetchIdentical: 3084, NotIdentical: 0, Divergences: 0, LenDiff: [7]uint64{0, 0, 0, 0, 0, 0, 0}}},
	{"blackscholes", trace.Profile{ExecuteIdentical: 3944, FetchIdentical: 14314, NotIdentical: 0, Divergences: 0, LenDiff: [7]uint64{0, 0, 0, 0, 0, 0, 0}}},
	{"canneal", trace.Profile{ExecuteIdentical: 7364, FetchIdentical: 40762, NotIdentical: 3828, Divergences: 638, LenDiff: [7]uint64{638, 0, 0, 0, 0, 0, 0}}},
}

func TestProfileGolden(t *testing.T) {
	if len(goldenProfiles) != len(workloads.All()) {
		t.Fatalf("%d golden profiles for %d kernels", len(goldenProfiles), len(workloads.All()))
	}
	for _, g := range goldenProfiles {
		a, ok := workloads.ByName(g.app)
		if !ok {
			t.Fatalf("unknown kernel %q", g.app)
		}
		out, err := Task{App: a, Threads: 2, Profile: true, MaxInsts: ProfileInsts}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if *out.Profile != g.want {
			t.Errorf("%s: profile %+v, want %+v", g.app, *out.Profile, g.want)
		}
	}
}
