package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; an untraced run
// reports exactly these. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_insts_per_s", "insts/s"},
	{"allocs_per_kinst", "allocs"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// perLayer are the single-layer metrics a traced run reports. Counts and
// times are per traced pass; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"build.ms_total", "ms"},
	{"core.run_s", "s"},
	{"core.ns_per_inst", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.alloc_bytes_per_inst", "B"},
	{"core.gc_cycles", "count"},
	{"core.gc_cpu_frac", "fraction"},
	{"core.peak_rss_mb", "MB"},
	{"core.cycles", "count"},
	{"core.committed_insts", "count"},
	{"core.ipc", "insts/cycle"},
	{"core.merged_frac", "fraction"},
	{"core.fetch_per_inst", "fraction"},
	{"core.squash_ratio", "fraction"},
	{"core.divergences_per_kinst", "count"},
	{"core.remerges_per_kinst", "count"},
	{"core.catchups_aborted_ratio", "fraction"},
	{"core.lvip_rollbacks", "count"},
	{"core.regmerge_hit_ratio", "fraction"},
	{"core.fhb_searches", "count"},
	{"core.rst_updates", "count"},
	{"core.split_ops", "count"},
	{"core.rob_full_stops", "count"},
	{"core.iq_full_stops", "count"},
	{"core.lsq_full_stops", "count"},
	{"core.fetchq_full_stops", "count"},
	{"core.cpi.base", "cycles/inst"},
	{"core.cpi.fetch_stall", "cycles/inst"},
	{"core.cpi.catchup", "cycles/inst"},
	{"core.cpi.rollback", "cycles/inst"},
	{"core.cpi.drain", "cycles/inst"},
	{"branch.mispredict_rate", "fraction"},
	{"branch.wrong_path_slots", "count"},
	{"tracecache.hits_per_kinst", "count"},
	{"cache.l1_accesses", "count"},
	{"cache.l2_per_l1", "fraction"},
	{"cache.dram_per_l2", "fraction"},
	{"cache.hit_ratio", "fraction"},
	{"power.energy_per_job", "pJ/inst"},
	{"power.model_us", "us"},
	{"sim.encode_us", "us"},
	{"sim.decode_us", "us"},
	{"sim.outcome_bytes", "B"},
	{"runner.exec_ms_p50", "ms"},
	{"runner.exec_ms_p99", "ms"},
	{"runner.utilization", "fraction"},
	{"runner.idle_s", "s"},
	{"runner.cache_hits", "count"},
	{"runner.cache_writes", "count"},
	{"runner.failed", "count"},
	{"runner.retries", "count"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.run_ms_p99", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.dedup_ratio", "fraction"},
	{"serve.cache_source_frac", "fraction"},
	{"serve.rejected", "count"},
	{"serve.client_retries", "count"},
	{"cluster.routed", "count"},
	{"cluster.stolen", "count"},
	{"cluster.rerouted", "count"},
	{"cluster.errors", "count"},
	{"cluster.placements", "count"},
	{"self.bench_s", "s"},
	{"self.sim_s", "s"},
	{"self.runner_s", "s"},
	{"self.trace_s", "s"},
	{"self.client_s", "s"},
	{"self.queue_s", "s"},
	{"self.dse_s", "s"},
	{"trace.accounted_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// bench is one run's state: the measurements every rig feeds.
type bench struct {
	cfg   config
	rng   *rand.Rand
	spans *spanLog // nil unless the run is traced

	probe  *hostProbe
	setups []interval
	passes []passStat
	cur    passStat
	mem0   memStats

	attempted, failed, wrong    int
	simulated, cacheHits, joins int // serve-fleet jobs by how the fleet served them
	checked, unchecked          int
	refName, firstErr           string
	sums                        map[string]float64   // traced passes: counts, summed
	samples                     map[string][]float64 // traced passes: per-call values
}

// interval is one timed stretch of host time.
type interval struct {
	start time.Time
	dur   time.Duration
}

// passStat is one pass's totals.
type passStat struct {
	traced bool
	start  time.Time
	wall   time.Duration
	ops    int
	lats   []time.Duration // operation latencies of an untraced pass
	insts  uint64          // committed simulated instructions, summed over threads
	mem    memStats
}

// memStats are the runtime counters a pass is charged with.
type memStats struct {
	allocs, bytes, gcCycles uint64
	gcCPU, totalCPU         float64
}

var memSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMem() memStats {
	s := make([]metrics.Sample, len(memSampleNames))
	for i, n := range memSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return memStats{allocs: u(0), bytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

func (m memStats) sub(o memStats) memStats {
	return memStats{m.allocs - o.allocs, m.bytes - o.bytes, m.gcCycles - o.gcCycles,
		m.gcCPU - o.gcCPU, m.totalCPU - o.totalCPU}
}

func (b *bench) noteSetup(start time.Time) {
	b.setups = append(b.setups, interval{start, time.Since(start)})
}

// rootSpan opens the current traced pass's root span, standing for width
// tracks.
func (b *bench) rootSpan(name string, width int, start time.Time) *span {
	return b.spans.root(name, width, start)
}

func (b *bench) beginPass(traced bool) {
	b.cur = passStat{traced: traced}
	b.mem0 = readMem()
}

// endPass closes the current pass with the stretch the rig timed.
func (b *bench) endPass(iv interval) {
	b.cur.start, b.cur.wall = iv.start, iv.dur
	b.cur.mem = readMem().sub(b.mem0)
	b.passes = append(b.passes, b.cur)
	if b.cur.traced {
		b.add("mem.bytes", float64(b.cur.mem.bytes))
		b.add("mem.gc_cycles", float64(b.cur.mem.gcCycles))
		b.add("mem.gc_cpu", b.cur.mem.gcCPU)
		b.add("mem.total_cpu", b.cur.mem.totalCPU)
		b.add("pass.insts", float64(b.cur.insts))
	}
}

// walls lists the traced or the untraced passes' wall times in seconds.
func (b *bench) walls(traced bool) []float64 {
	var out []float64
	for _, p := range b.passes {
		if p.traced == traced {
			out = append(out, p.wall.Seconds())
		}
	}
	return out
}

// op records one finished operation (experiment or job) of the current
// pass, and its latency. A non-nil err counts it as failed.
func (b *bench) op(name string, lat time.Duration, insts uint64, err error) {
	b.attempted++
	b.cur.ops++
	if err != nil {
		b.failed++
		b.noteErr(fmt.Sprintf("%s: %v", name, err))
		return
	}
	b.cur.insts += insts
	if !b.cur.traced {
		b.cur.lats = append(b.cur.lats, lat)
	}
}

// wrongResult counts an operation whose output disagrees with its
// reference.
func (b *bench) wrongResult(format string, args ...any) {
	b.wrong++
	b.noteErr(fmt.Sprintf(format, args...))
}

func (b *bench) noteErr(msg string) {
	if b.firstErr == "" {
		b.firstErr = msg
	}
}

// add and sample accumulate per-layer values; only traced passes call
// them.
func (b *bench) add(key string, v float64) {
	if b.sums == nil {
		b.sums = make(map[string]float64)
	}
	b.sums[key] += v
}

func (b *bench) sample(key string, v float64) {
	if b.samples == nil {
		b.samples = make(map[string][]float64)
	}
	b.samples[key] = append(b.samples[key], v)
}

// endToEndValues computes the end-to-end metrics from the untraced
// passes. The pass time and the rates are totals over all passes (work
// summed over time summed), and the latency percentiles pool every
// operation of every pass: the passes are whole and alike, so each task or
// job contributes the same share of the samples however many passes ran.
// Host times are divided by the probe's slowdown over the stretch they
// come from (probe.go): a set-up by the slowdown around it, a pass's wall
// and its operations' latencies by the slowdown over the pass.
func (b *bench) endToEndValues() (map[string]float64, map[string]int) {
	var setups, lat []float64
	var wall, insts, allocs float64
	ops, passes := 0, 0
	for _, s := range b.setups {
		setups = append(setups, s.dur.Seconds()/b.probe.slowdown(s.start, s.start.Add(s.dur)))
	}
	for _, p := range b.passes {
		if p.traced {
			continue
		}
		f := b.probe.slowdown(p.start, p.start.Add(p.wall))
		wall += p.wall.Seconds() / f
		for _, l := range p.lats {
			lat = append(lat, 1e3*l.Seconds()/f)
		}
		passes++
		ops += p.ops
		insts += float64(p.insts)
		allocs += float64(p.mem.allocs)
	}
	v := map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           ratio(wall, float64(passes)),
		"sim_insts_per_s":  ratio(insts, wall),
		"allocs_per_kinst": ratio(allocs, insts/1000),
		"job_p50_ms":       percentile(lat, 0.50),
		"job_p90_ms":       percentile(lat, 0.90),
		"jobs_per_s":       ratio(float64(ops), wall),
	}
	n := map[string]int{"setup_s": len(setups), "wall_s": passes, "job_p50_ms": len(lat), "job_p90_ms": len(lat)}
	return v, n
}

// hostSlowdown is the probe's median slowdown over the untraced passes.
func (b *bench) hostSlowdown() float64 {
	var s []float64
	for _, p := range b.passes {
		if !p.traced {
			s = append(s, b.probe.slowdown(p.start, p.start.Add(p.wall)))
		}
	}
	return median(s)
}

// perLayerValues computes the per-layer metrics from the traced passes.
func (b *bench) perLayerValues() map[string]float64 {
	tp := float64(len(b.walls(true)))
	s := func(k string) float64 { return b.sums[k] }
	pp := func(k string) float64 { return ratio(s(k), tp) }
	med := func(k string) float64 { return median(b.samples[k]) }
	pct := func(k string, q float64) float64 { return percentile(b.samples[k], q) }
	insts := s("core.committed_insts")
	kinst := insts / 1000
	self := b.spans.selfTimes()
	selfPP := func(layer string) float64 { return ratio(self[layer], tp*1e6) }
	return map[string]float64{
		"build.ms_total":              selfPP("workloads") * 1000,
		"core.run_s":                  selfPP("core"),
		"core.ns_per_inst":            ratio(self["core"]*1e3, insts),
		"core.ns_per_cycle":           ratio(self["core"]*1e3, s("core.cycles")),
		"core.alloc_bytes_per_inst":   ratio(s("mem.bytes"), s("pass.insts")),
		"core.gc_cycles":              pp("mem.gc_cycles"),
		"core.gc_cpu_frac":            ratio(s("mem.gc_cpu"), s("mem.total_cpu")),
		"core.peak_rss_mb":            peakRSSMB(),
		"core.cycles":                 pp("core.cycles"),
		"core.committed_insts":        pp("core.committed_insts"),
		"core.ipc":                    ratio(insts, s("core.cycles")),
		"core.merged_frac":            ratio(s("core.merged"), s("core.classified")),
		"core.fetch_per_inst":         ratio(s("core.fetch_accesses"), insts),
		"core.squash_ratio":           ratio(s("core.squashed_uops"), s("core.renamed_uops")),
		"core.divergences_per_kinst":  ratio(s("core.divergences"), kinst),
		"core.remerges_per_kinst":     ratio(s("core.remerges"), kinst),
		"core.catchups_aborted_ratio": ratio(s("core.catchups_aborted"), s("core.catchups_started")),
		"core.lvip_rollbacks":         pp("core.lvip_rollbacks"),
		"core.regmerge_hit_ratio":     ratio(s("core.regmerge_hits"), s("core.regmerge_compares")),
		"core.fhb_searches":           pp("core.fhb_searches"),
		"core.rst_updates":            pp("core.rst_updates"),
		"core.split_ops":              pp("core.split_ops"),
		"core.rob_full_stops":         pp("core.rob_full_stops"),
		"core.iq_full_stops":          pp("core.iq_full_stops"),
		"core.lsq_full_stops":         pp("core.lsq_full_stops"),
		"core.fetchq_full_stops":      pp("core.fetchq_full_stops"),
		"core.cpi.base":               ratio(s("cpi.base"), s("cpi.insts")),
		"core.cpi.fetch_stall":        ratio(s("cpi.fetch_stall"), s("cpi.insts")),
		"core.cpi.catchup":            ratio(s("cpi.catchup"), s("cpi.insts")),
		"core.cpi.rollback":           ratio(s("cpi.rollback"), s("cpi.insts")),
		"core.cpi.drain":              ratio(s("cpi.drain"), s("cpi.insts")),
		"branch.mispredict_rate":      ratio(s("core.mispredicts"), s("core.branch_uops")),
		"branch.wrong_path_slots":     pp("core.wrong_path_slots"),
		"tracecache.hits_per_kinst":   ratio(s("core.tracecache_hits"), kinst),
		"cache.l1_accesses":           pp("cache.l1"),
		"cache.l2_per_l1":             ratio(s("cache.l2"), s("cache.l1")),
		"cache.dram_per_l2":           ratio(s("cache.dram"), s("cache.l2")),
		"cache.hit_ratio":             1 - ratio(s("cache.dram"), s("cache.l1")),
		"power.energy_per_job":        ratio(s("power.energy"), insts),
		"power.model_us":              med("power.model_us"),
		"sim.encode_us":               med("sim.encode_us"),
		"sim.decode_us":               med("sim.decode_us"),
		"sim.outcome_bytes":           med("sim.outcome_bytes"),
		"runner.exec_ms_p50":          pct("runner.exec_ms", 0.50),
		"runner.exec_ms_p99":          pct("runner.exec_ms", 0.99),
		"runner.utilization":          ratio(s("runner.busy_s"), s("runner.capacity_s")),
		"runner.idle_s":               ratio(s("runner.capacity_s")-s("runner.busy_s"), tp),
		"runner.cache_hits":           pp("runner.cache_hits"),
		"runner.cache_writes":         pp("runner.cache_writes"),
		"runner.failed":               pp("runner.failed"),
		"runner.retries":              pp("runner.retries"),
		"serve.wait_ms_p50":           pct("serve.wait_ms", 0.50),
		"serve.wait_ms_p99":           pct("serve.wait_ms", 0.99),
		"serve.run_ms_p50":            pct("serve.run_ms", 0.50),
		"serve.run_ms_p99":            pct("serve.run_ms", 0.99),
		"serve.overhead_ms_p50":       pct("serve.overhead_ms", 0.50),
		"serve.dedup_ratio":           ratio(s("serve.dedup"), s("serve.jobs")),
		"serve.cache_source_frac":     ratio(s("serve.cache_source"), s("serve.jobs")),
		"serve.rejected":              pp("serve.rejected"),
		"serve.client_retries":        pp("serve.client_retries"),
		"cluster.routed":              pp("cluster.routed"),
		"cluster.stolen":              pp("cluster.stolen"),
		"cluster.rerouted":            pp("cluster.rerouted"),
		"cluster.errors":              pp("cluster.errors"),
		"cluster.placements":          pp("cluster.placements"),
		"self.bench_s":                selfPP("bench"),
		"self.sim_s":                  selfPP("sim"),
		"self.runner_s":               selfPP("runner"),
		"self.trace_s":                selfPP("trace"),
		"self.client_s":               selfPP("client"),
		"self.queue_s":                selfPP("queue"),
		"self.dse_s":                  selfPP("dse"),
		"trace.accounted_frac":        b.spans.coverage(),
		"trace.overhead_frac":         ratio(median(b.walls(true)), median(b.walls(false))) - 1,
	}
}

// metric is one reported value; N is the sample count behind a median or
// percentile.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// sources counts jobs that simulated, hit the result cache, or joined an
// in-flight duplicate.
type sources struct {
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	Joins     int `json:"joins"`
}

// record is everything one run reports; -json appends it as one line.
type record struct {
	Workload     string  `json:"workload"`
	Why          string  `json:"why"`
	Seed         int64   `json:"seed"`
	Trace        bool    `json:"trace"`
	WindowS      float64 `json:"window_s"`
	Passes       int     `json:"passes"`
	TracedPasses int     `json:"traced_passes"`
	Host         host    `json:"host"`
	// HostSlowdown is the probe's median slowdown over the measured
	// passes, relative to the nominal host.
	HostSlowdown float64 `json:"host_slowdown,omitempty"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Wrong     int    `json:"wrong"`
	Checked   int    `json:"checked"`
	Unchecked int    `json:"unchecked_tasks"`
	Reference string `json:"reference,omitempty"`
	FirstErr  string `json:"first_error,omitempty"`
	// Served splits serve-fleet's jobs by how the fleet served them.
	Served *sources `json:"served,omitempty"`

	Metrics []metric `json:"metrics"`
	// Layers is the traced passes' self time per layer, per pass.
	Layers map[string]float64 `json:"layers_s,omitempty"`

	spans *spanLog
}

func (b *bench) record(why string) *record {
	rec := &record{
		Workload:     b.cfg.workload,
		Why:          why,
		Seed:         b.cfg.seed,
		Trace:        b.cfg.trace,
		WindowS:      b.cfg.window.Seconds(),
		Passes:       len(b.passes),
		TracedPasses: len(b.walls(true)),
		Host:         fingerprint(),
		Correct:      b.failed == 0 && b.wrong == 0,
		Attempted:    b.attempted,
		Failed:       b.failed,
		Wrong:        b.wrong,
		Checked:      b.checked,
		Unchecked:    b.unchecked,
		Reference:    b.refName,
		FirstErr:     b.firstErr,
		spans:        b.spans,
	}
	if b.simulated+b.cacheHits+b.joins > 0 {
		rec.Served = &sources{b.simulated, b.cacheHits, b.joins}
	}
	defs, vals, ns := endToEnd, map[string]float64(nil), map[string]int(nil)
	if b.cfg.trace {
		defs, vals = perLayer, b.perLayerValues()
		rec.Layers = make(map[string]float64)
		for layer, us := range b.spans.selfTimes() {
			rec.Layers[layer] = ratio(us/1e6, float64(rec.TracedPasses))
		}
	} else {
		vals, ns = b.endToEndValues()
		rec.HostSlowdown = b.hostSlowdown()
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("mmtperf: metric " + d.name + " not computed")
		}
		rec.Metrics = append(rec.Metrics, metric{Name: d.name, Value: v, Unit: d.unit, N: ns[d.name]})
	}
	return rec
}

// printHuman writes the readable report that precedes the JSON line.
func printHuman(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s seed %d: %d passes (%d traced) in a %.0f s window\n",
		rec.Workload, rec.Seed, rec.Passes, rec.TracedPasses, rec.WindowS)
	fmt.Fprintf(w, "  why: %s\n", rec.Why)
	h := rec.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, GOGC %q, %s, commit %s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.Commit)
	if rec.HostSlowdown != 0 {
		fmt.Fprintf(w, "host slowdown %.3f (probe time over nominal, median over the passes); each host time below is divided by the slowdown around it\n", rec.HostSlowdown)
	}
	fmt.Fprintf(w, "check: %d attempted, %d failed, %d wrong; %d checked against %s, %d unchecked_tasks\n",
		rec.Attempted, rec.Failed, rec.Wrong, rec.Checked, orNone(rec.Reference), rec.Unchecked)
	if rec.FirstErr != "" {
		fmt.Fprintf(w, "  first error: %s\n", rec.FirstErr)
	}
	if s := rec.Served; s != nil {
		fmt.Fprintf(w, "served: %d simulated, %d cache hits, %d joined in flight\n", s.Simulated, s.CacheHits, s.Joins)
	}
	fmt.Fprintf(w, "error_rate %g fraction\n", ratio(float64(rec.Failed+rec.Wrong), float64(rec.Attempted)))
	for _, m := range rec.Metrics {
		line := fmt.Sprintf("%s %g %s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintln(w, line)
	}
	if rec.Trace {
		printLayers(w, rec)
	}
}

// printLayers writes the traced passes' self-time table.
func printLayers(w io.Writer, rec *record) {
	var layers []string
	var total float64
	for l, s := range rec.Layers {
		layers = append(layers, l)
		total += s
	}
	sort.Slice(layers, func(i, j int) bool { return rec.Layers[layers[i]] > rec.Layers[layers[j]] })
	fmt.Fprintf(w, "self time per traced pass (track seconds):\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.4f s %6.1f%%\n", l, rec.Layers[l], 100*ratio(rec.Layers[l], total))
	}
	fmt.Fprintf(w, "  %-10s %10.4f s, %.1f%% of traced wall x tracks\n", "total", total,
		100*rec.value("trace.accounted_frac"))
	fmt.Fprintf(w, "tracing overhead %+.1f%%\n", 100*rec.value("trace.overhead_frac"))
}

// value returns a reported metric's value (0 when absent).
func (r *record) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func orNone(s string) string {
	if s == "" {
		return "no reference"
	}
	return s
}

// appendRecord adds one JSON line to path.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readRecords loads a file of JSON-line records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// host fingerprints the machine and build behind a record; wall-clock
// numbers compare only between equal fingerprints.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether wall-clock numbers from the two hosts are
// comparable. The commit may differ: comparing commits is the point.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GOGC == o.GOGC && h.GoVersion == o.GoVersion
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision: git's HEAD when the run starts at the
// top of a work tree, "unknown" otherwise (an exported checkout has no
// history). Git may not search above the working directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // malformed reads as 0
				return kb / 1024
			}
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so -compare agrees with spreads computed by that common tool. It needs
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
