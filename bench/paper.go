package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mmt/internal/cli"
)

// paperArtifacts is the mmtbench artifact set one paper-eval pass
// regenerates. The full set takes about 42 s at -j 2, longer than a
// measured window; this subset keeps what only the full evaluation
// exercises: the trace-alignment profiles (fig1), all five Table 5
// presets (fig5a) and a configuration sweep (fig7c, FHB size), across the
// pool's workers. It takes about 10 s a pass.
const paperArtifacts = "fig1,fig5a,fig7c"

// paperWorkers is mmtbench's -j.
const paperWorkers = 2

// paperRig runs the mmtbench command itself, cli.RunBench, with no
// persistent cache, and reads the per-experiment records it writes with
// -bench-json.
type paperRig struct {
	ref  *reference
	dir  string
	out  string
	args []string
}

func setupPaper(b *bench) (rig, error) {
	ref, err := b.loadRef()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mmtperf-paper-")
	if err != nil {
		return nil, err
	}
	only := paperArtifacts
	if b.cfg.only != "" {
		only = b.cfg.only
	}
	out := filepath.Join(dir, "bench.json")
	return &paperRig{ref: ref, dir: dir, out: out, args: []string{
		"-only", only, "-j", strconv.Itoa(paperWorkers), "-retries", "0",
		"-bench-json", out, "-flight-dump-dir", "",
	}}, nil
}

// pass runs mmtbench once. Its experiments run inside the pool, out of
// reach of the benchmark's clocks, so a traced pass derives one span per
// experiment from the wall time mmtbench records for it; the pool root
// stands for every worker, and its self time is the workers' idle time.
func (d *paperRig) pass(b *bench, traced bool) (interval, error) {
	start := time.Now()
	err := cli.RunBench(d.args, io.Discard)
	wall := time.Since(start)
	if err != nil {
		return interval{}, fmt.Errorf("mmtbench %s: %w", strings.Join(d.args, " "), err)
	}
	raw, err := os.ReadFile(d.out)
	if err != nil {
		return interval{}, err
	}
	var f cli.BenchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return interval{}, fmt.Errorf("decoding %s: %w", d.out, err)
	}
	var root *span
	if traced {
		root = b.rootSpan("runner.pool", paperWorkers, start)
		root.endAt(start.Add(wall))
		b.add("runner.capacity_s", paperWorkers*wall.Seconds())
	}
	for _, e := range f.Experiments {
		lat := time.Duration(e.WallMS * float64(time.Millisecond))
		insts := instsOf(e.IPC, e.Cycles)
		b.checkRef(d.ref, e.Key, e.Name, e.Cycles, insts)
		b.op(e.Name, lat, insts, nil)
		if traced {
			layer := "core.exec"
			if strings.HasPrefix(e.Name, "profile:") {
				layer = "trace.profile"
			}
			b.spans.derived(root, layer, e.Name, 0, start, lat)
			b.sample("runner.exec_ms", e.WallMS)
			b.add("runner.busy_s", lat.Seconds())
			b.add("core.cycles", float64(e.Cycles))
			b.add("core.committed_insts", float64(insts))
		}
	}
	return interval{start, wall}, nil
}

func (d *paperRig) verify(*bench) error { return nil }
func (d *paperRig) close() error        { return os.RemoveAll(d.dir) }
