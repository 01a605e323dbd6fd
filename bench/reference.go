package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mmt/internal/cli"
)

// refEntry is one experiment's reference outcome.
type refEntry struct{ cycles, insts uint64 }

// reference holds the newest committed BENCH_<n>.json by task key: the
// simulated cycles and committed instructions every experiment must
// reproduce exactly.
type reference struct {
	name  string
	byKey map[string]refEntry
}

// loadReference reads the highest-numbered BENCH_<n>.json in dir.
func loadReference(dir string) (*reference, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	best, bestN := "", -1
	for _, p := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if n, err := strconv.Atoi(num); err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	if best == "" {
		return nil, fmt.Errorf("no BENCH_<n>.json reference in %s", dir)
	}
	raw, err := os.ReadFile(best)
	if err != nil {
		return nil, err
	}
	var f cli.BenchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", best, err)
	}
	if len(f.Experiments) == 0 {
		return nil, fmt.Errorf("%s holds no experiments", best)
	}
	r := &reference{name: filepath.Base(best), byKey: make(map[string]refEntry, len(f.Experiments))}
	for _, e := range f.Experiments {
		r.byKey[e.Key] = refEntry{e.Cycles, instsOf(e.IPC, e.Cycles)}
	}
	return r, nil
}

// instsOf recovers committed instructions from a bench entry's IPC.
func instsOf(ipc float64, cycles uint64) uint64 {
	return uint64(math.Round(ipc * float64(cycles)))
}

// loadRef resolves the run's reference: the test override, else the
// newest BENCH file under the configured root.
func (b *bench) loadRef() (*reference, error) {
	if b.cfg.ref != nil {
		b.refName = b.cfg.ref.name
		return b.cfg.ref, nil
	}
	r, err := loadReference(b.cfg.root)
	if err != nil {
		return nil, err
	}
	b.refName = r.name
	return r, nil
}

// checkRef compares one experiment with the reference. Keys the reference
// lacks count as unchecked, not as errors.
func (b *bench) checkRef(ref *reference, key, name string, cycles, insts uint64) {
	want, ok := ref.byKey[key]
	if !ok {
		b.unchecked++
		return
	}
	b.checked++
	if want != (refEntry{cycles, insts}) {
		b.wrongResult("%s: %d cycles, %d insts; %s has %d cycles, %d insts",
			name, cycles, insts, ref.name, want.cycles, want.insts)
	}
}
