package main

import (
	"errors"
	"time"

	"mmt/internal/cache"
	"mmt/internal/core"
	"mmt/internal/power"
	"mmt/internal/sim"
)

// coreRig runs every application at 2 and 4 threads under one preset,
// serially through sim.Task.Execute: no pool and no HTTP, so a pass times
// the build and the cycle loop alone.
type coreRig struct {
	ref   *reference
	tasks []sim.Task
	keys  []string // untraced task keys, which the reference is keyed by
}

func setupCore(preset sim.Preset) func(*bench) (rig, error) {
	return func(b *bench) (rig, error) {
		ref, err := b.loadRef()
		if err != nil {
			return nil, err
		}
		d := &coreRig{ref: ref}
		for _, a := range b.appsFor() {
			for _, threads := range []int{2, 4} {
				t := sim.Task{App: a, Preset: preset, Threads: threads}
				key, err := t.Key()
				if err != nil {
					return nil, err
				}
				d.tasks = append(d.tasks, t)
				d.keys = append(d.keys, key)
			}
		}
		return d, nil
	}
}

// pass runs every task once in a seed-shuffled order. A traced pass also
// attributes cycles (Task.Attribution), and times the power model and the
// outcome codec on each result.
func (d *coreRig) pass(b *bench, traced bool) (interval, error) {
	order := b.rng.Perm(len(d.tasks))
	start := time.Now()
	var root *span
	if traced {
		root = b.rootSpan("bench.pass", 1, start)
	}
	for _, i := range order {
		t := d.tasks[i]
		var ts *span
		if traced {
			ts = b.spans.begin(root, "sim.task", 0, time.Now())
			ts.Label = t.Name()
			t.Attribution = true
			t.Phase = phaseSpans(b.spans, ts)
		}
		t0 := time.Now()
		out, err := t.Execute()
		lat := time.Since(t0)
		var insts uint64
		if err == nil {
			st := out.Result.Stats
			insts = st.TotalCommitted()
			b.checkRef(d.ref, d.keys[i], t.Name(), st.Cycles, insts)
			if traced {
				b.observeModel(out)
				b.timePower(ts, 0, t.Name(), out.Result)
				b.timeCodec(ts, 0, t.Name(), out)
			}
		}
		if traced {
			ts.end()
		}
		b.op(t.Name(), lat, insts, err)
	}
	wall := time.Since(start)
	if traced {
		root.endAt(start.Add(wall))
	}
	return interval{start, wall}, nil
}

func (d *coreRig) verify(*bench) error { return nil }
func (d *coreRig) close() error        { return nil }

// phaseSpanName maps sim.Task's phases onto the layers that do the work.
func phaseSpanName(phase string) string {
	switch phase {
	case "build":
		return "workloads.build"
	case "run":
		return "core.run"
	}
	return "sim." + phase
}

// phaseSpans is a Task.Phase hook recording each phase as a child of
// parent.
func phaseSpans(l *spanLog, parent *span) func(string) func() {
	return func(phase string) func() {
		return l.begin(parent, phaseSpanName(phase), parent.Track, time.Now()).end
	}
}

// observeModel adds one timing result's modelled counters to the traced
// totals.
func (b *bench) observeModel(out *sim.Outcome) {
	r := out.Result
	st := r.Stats
	insts := float64(st.TotalCommitted())
	b.addStats(st, r.Mem)
	b.add("power.energy", r.Energy.Total())
	if a := out.Attribution; a != nil {
		b.add("cpi.base", float64(a.CPI.Base))
		b.add("cpi.fetch_stall", float64(a.CPI.FetchStall))
		b.add("cpi.catchup", float64(a.CPI.Catchup))
		b.add("cpi.rollback", float64(a.CPI.Rollback))
		b.add("cpi.drain", float64(a.CPI.Drain))
		b.add("cpi.insts", insts)
	}
}

func (b *bench) addStats(st *core.Stats, mem cache.Events) {
	for k, v := range map[string]uint64{
		"core.cycles":            st.Cycles,
		"core.committed_insts":   st.TotalCommitted(),
		"core.merged":            st.ExecIdentical + st.ExecIdentRegMerge,
		"core.classified":        st.ExecIdentical + st.ExecIdentRegMerge + st.FetchIdenticalOnly + st.NotIdentical,
		"core.fetch_accesses":    st.FetchAccesses,
		"core.squashed_uops":     st.SquashedUops,
		"core.renamed_uops":      st.RenamedUops,
		"core.divergences":       st.Divergences,
		"core.remerges":          st.Remerges,
		"core.catchups_started":  st.CatchupsStarted,
		"core.catchups_aborted":  st.CatchupsAborted,
		"core.lvip_rollbacks":    st.LVIPRollbacks,
		"core.regmerge_hits":     st.RegMergeHits,
		"core.regmerge_compares": st.RegMergeCompares,
		"core.fhb_searches":      st.FHBSearches,
		"core.rst_updates":       st.RSTUpdates,
		"core.split_ops":         st.SplitOps,
		"core.rob_full_stops":    st.ROBFullStop,
		"core.iq_full_stops":     st.IQFullStop,
		"core.lsq_full_stops":    st.LSQFullStop,
		"core.fetchq_full_stops": st.FetchQFullStop,
		"core.mispredicts":       st.Mispredicts,
		"core.branch_uops":       st.BranchUops,
		"core.wrong_path_slots":  st.WrongPathFetchSlots,
		"core.tracecache_hits":   st.TraceCacheHits,
		"cache.l1":               mem.L1IAccesses + mem.L1DAccesses,
		"cache.l2":               mem.L2Accesses,
		"cache.dram":             mem.DRAMAccesses,
	} {
		b.add(k, float64(v))
	}
}

// timePower re-evaluates the energy model on a result under a span, and
// checks it reproduces the energy the result carries.
func (b *bench) timePower(parent *span, track int, name string, r *sim.Result) {
	s := b.spans.begin(parent, "power.energy", track, time.Now())
	m := power.NewModel()
	e := m.Energy(r.Stats, r.Mem)
	epj := m.EnergyPerJob(r.Stats, r.Mem)
	s.end()
	b.sample("power.model_us", s.DurUS)
	if e != r.Energy || epj != r.EnergyPerJob {
		b.wrongResult("%s: power model gives %g pJ/inst, the result carries %g", name, epj, r.EnergyPerJob)
	}
}

// timeCodec round-trips an outcome through the canonical codec under
// spans, and checks the decoded result matches.
func (b *bench) timeCodec(parent *span, track int, name string, out *sim.Outcome) {
	es := b.spans.begin(parent, "codec.encode", track, time.Now())
	raw, err := sim.MarshalOutcome(out)
	es.end()
	if err != nil {
		b.wrongResult("%s: encoding outcome: %v", name, err)
		return
	}
	ds := b.spans.begin(parent, "codec.decode", track, time.Now())
	back, err := sim.UnmarshalOutcome(raw)
	ds.end()
	b.noteCodec(name, es.DurUS, ds.DurUS, len(raw), out, back, err)
}

// noteCodec records one codec round trip and checks it.
func (b *bench) noteCodec(name string, encUS, decUS float64, size int, out, back *sim.Outcome, err error) {
	b.sample("sim.encode_us", encUS)
	b.sample("sim.decode_us", decUS)
	b.sample("sim.outcome_bytes", float64(size))
	if err == nil && !sameResult(out, back) {
		err = errMismatch
	}
	if err != nil {
		b.wrongResult("%s: outcome codec round trip: %v", name, err)
	}
}

var errMismatch = errors.New("decoded result differs from the original")

// sameResult compares the parts of two timing outcomes the reference
// checks pin: cycles, committed instructions and energy per job.
func sameResult(a, b *sim.Outcome) bool {
	if a == nil || b == nil || a.Result == nil || b.Result == nil {
		return false
	}
	x, y := a.Result, b.Result
	return x.Stats.Cycles == y.Stats.Cycles && x.Stats.TotalCommitted() == y.Stats.TotalCommitted() &&
		x.EnergyPerJob == y.EnergyPerJob
}
