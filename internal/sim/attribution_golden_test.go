package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mmt/internal/prof"
	"mmt/internal/workloads"
)

// goldenAttribution pins every kernel's exact attribution profile under
// MMT-FXR at 2T and 4T: the cycle count and CPI stack, the number of
// sites and remerge edges, and the first 16 hex digits of the SHA-256 of
// the canonical encoding (Profile.Marshal). BENCH rows carry no
// attribution and the report prints none, so this table is what pins
// the profiler's per-PC and per-cycle accounting on real kernels.
var goldenAttribution = []struct {
	app          string
	threads      int
	cycles       uint64
	cpi          prof.CPIStack
	sites, edges int
	sum          string
}{
	{"libsvm", 2, 4005, prof.CPIStack{Base: 1712, FetchStall: 2259, Catchup: 3, Rollback: 6, Drain: 25}, 33, 3, "4d2c5160cf67c1df"},
	{"libsvm", 4, 6278, prof.CPIStack{Base: 2679, FetchStall: 3376, Catchup: 7, Rollback: 6, Drain: 210}, 33, 2, "be9d107bed37fdb3"},
	{"ammp", 2, 12579, prof.CPIStack{Base: 8139, FetchStall: 4414, Catchup: 20, Rollback: 6, Drain: 0}, 74, 7, "217922510eab13da"},
	{"ammp", 4, 15770, prof.CPIStack{Base: 8577, FetchStall: 7166, Catchup: 11, Rollback: 16, Drain: 0}, 74, 5, "d37b83fce4c898da"},
	{"twolf", 2, 13646, prof.CPIStack{Base: 12838, FetchStall: 669, Catchup: 132, Rollback: 7, Drain: 0}, 32, 6, "727b3c9fc5153310"},
	{"twolf", 4, 24831, prof.CPIStack{Base: 24060, FetchStall: 569, Catchup: 195, Rollback: 7, Drain: 0}, 32, 18, "474f299c70611f0e"},
	{"vortex", 2, 24538, prof.CPIStack{Base: 23001, FetchStall: 1502, Catchup: 28, Rollback: 7, Drain: 0}, 28, 5, "3b4999be4ab4f2be"},
	{"vortex", 4, 47781, prof.CPIStack{Base: 45957, FetchStall: 1645, Catchup: 172, Rollback: 7, Drain: 0}, 28, 14, "7c5b3a32173fbbe7"},
	{"vpr", 2, 18740, prof.CPIStack{Base: 15368, FetchStall: 2837, Catchup: 528, Rollback: 7, Drain: 0}, 34, 5, "cd1e4d704fbac029"},
	{"vpr", 4, 24950, prof.CPIStack{Base: 22676, FetchStall: 1162, Catchup: 1104, Rollback: 7, Drain: 1}, 34, 17, "2b49cc271c3c605f"},
	{"equake", 2, 8970, prof.CPIStack{Base: 7319, FetchStall: 1063, Catchup: 581, Rollback: 7, Drain: 0}, 41, 10, "826be06497d2b60b"},
	{"equake", 4, 12790, prof.CPIStack{Base: 10470, FetchStall: 1059, Catchup: 1240, Rollback: 7, Drain: 14}, 41, 31, "836dbf97f4b22ac0"},
	{"mcf", 2, 10610, prof.CPIStack{Base: 7612, FetchStall: 2974, Catchup: 10, Rollback: 14, Drain: 0}, 37, 8, "d57834e93fac624a"},
	{"mcf", 4, 12844, prof.CPIStack{Base: 7544, FetchStall: 5219, Catchup: 66, Rollback: 15, Drain: 0}, 37, 9, "6fd25edb79e05ea9"},
	{"ocean", 2, 35275, prof.CPIStack{Base: 30679, FetchStall: 4592, Catchup: 4, Rollback: 0, Drain: 0}, 34, 2, "4ab50a27cbfbfd91"},
	{"ocean", 4, 43967, prof.CPIStack{Base: 39208, FetchStall: 4749, Catchup: 10, Rollback: 0, Drain: 0}, 34, 7, "8521e86a0acbdb05"},
	{"lu", 2, 10823, prof.CPIStack{Base: 4858, FetchStall: 5965, Catchup: 0, Rollback: 0, Drain: 0}, 30, 0, "1ed3dd833e8e692a"},
	{"lu", 4, 20332, prof.CPIStack{Base: 8400, FetchStall: 11932, Catchup: 0, Rollback: 0, Drain: 0}, 30, 0, "a548a0405d8fe95e"},
	{"fft", 2, 6747, prof.CPIStack{Base: 4629, FetchStall: 2113, Catchup: 5, Rollback: 0, Drain: 0}, 71, 2, "405d24cb78c0fea9"},
	{"fft", 4, 12038, prof.CPIStack{Base: 7693, FetchStall: 4334, Catchup: 6, Rollback: 0, Drain: 5}, 71, 2, "0052164e907eb45b"},
	{"water-ns", 2, 32608, prof.CPIStack{Base: 29551, FetchStall: 3042, Catchup: 15, Rollback: 0, Drain: 0}, 46, 11, "64d2adef6ce88c5a"},
	{"water-ns", 4, 43383, prof.CPIStack{Base: 41747, FetchStall: 1628, Catchup: 7, Rollback: 0, Drain: 1}, 46, 10, "51b789f628b3c2ba"},
	{"water-sp", 2, 7815, prof.CPIStack{Base: 4643, FetchStall: 2867, Catchup: 305, Rollback: 0, Drain: 0}, 35, 6, "218abcd1ac44c200"},
	{"water-sp", 4, 11899, prof.CPIStack{Base: 8585, FetchStall: 3036, Catchup: 278, Rollback: 0, Drain: 0}, 35, 23, "35e5584e57439b7c"},
	{"swaptions", 2, 2941, prof.CPIStack{Base: 2255, FetchStall: 686, Catchup: 0, Rollback: 0, Drain: 0}, 28, 0, "76609e6506e7c48b"},
	{"swaptions", 4, 3631, prof.CPIStack{Base: 2728, FetchStall: 903, Catchup: 0, Rollback: 0, Drain: 0}, 28, 0, "bf41665778441c3e"},
	{"fluidanimate", 2, 4033, prof.CPIStack{Base: 1891, FetchStall: 2142, Catchup: 0, Rollback: 0, Drain: 0}, 31, 0, "40cad99d8c1a72cf"},
	{"fluidanimate", 4, 5340, prof.CPIStack{Base: 2678, FetchStall: 2660, Catchup: 0, Rollback: 0, Drain: 2}, 31, 0, "dc1571f85cfc4326"},
	{"blackscholes", 2, 6097, prof.CPIStack{Base: 3023, FetchStall: 3069, Catchup: 0, Rollback: 0, Drain: 5}, 27, 0, "da31e642f93d8dcb"},
	{"blackscholes", 4, 11523, prof.CPIStack{Base: 5793, FetchStall: 5728, Catchup: 0, Rollback: 0, Drain: 2}, 27, 0, "feeb50ec647daeee"},
	{"canneal", 2, 10214, prof.CPIStack{Base: 9035, FetchStall: 1036, Catchup: 143, Rollback: 0, Drain: 0}, 38, 3, "62edac73433b5358"},
	{"canneal", 4, 18954, prof.CPIStack{Base: 17514, FetchStall: 717, Catchup: 723, Rollback: 0, Drain: 0}, 38, 14, "67c9d2cd12b4c13c"},
}

func TestAttributionGolden(t *testing.T) {
	if want := 2 * len(workloads.All()); len(goldenAttribution) != want {
		t.Fatalf("%d golden attribution rows, want %d (every kernel at 2T and 4T)", len(goldenAttribution), want)
	}
	for _, g := range goldenAttribution {
		a, ok := workloads.ByName(g.app)
		if !ok {
			t.Fatalf("unknown kernel %q", g.app)
		}
		out, err := Task{App: a, Preset: PresetMMTFXR, Threads: g.threads, Attribution: true}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		p := out.Attribution
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		sum := hex.EncodeToString(s[:])[:16]
		if p.Cycles != g.cycles || p.CPI != g.cpi || len(p.Sites) != g.sites || len(p.RemergeEdges) != g.edges || sum != g.sum {
			t.Errorf("%s/%dT: cycles %d, CPI %+v, %d sites, %d edges, sum %s; want %d, %+v, %d, %d, %s",
				g.app, g.threads, p.Cycles, p.CPI, len(p.Sites), len(p.RemergeEdges), sum,
				g.cycles, g.cpi, g.sites, g.edges, g.sum)
		}
	}
}
