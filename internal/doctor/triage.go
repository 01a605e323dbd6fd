package doctor

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// LatencyShift is one histogram/timer pair's early-vs-late average over a
// node's metrics history window.
type LatencyShift struct {
	Node    string  `json:"node"`
	Metric  string  `json:"metric"` // base name, without _sum/_count
	EarlyMS float64 `json:"early_ms"`
	LateMS  float64 `json:"late_ms"`
	// Regressed marks a late average at least 1.5x the early one (and
	// above 1ms, so idle noise never pages anyone).
	Regressed bool `json:"regressed"`
}

// CounterMover is one counter whose rate changed across the window.
type CounterMover struct {
	Node      string  `json:"node"`
	Metric    string  `json:"metric"`
	EarlyRate float64 `json:"early_rate"` // per second
	LateRate  float64 `json:"late_rate"`
}

// SlowTraceNote summarizes one stitched slow trace for the report.
type SlowTraceNote struct {
	ID       string  `json:"id"`
	Root     string  `json:"root"`
	DurMS    float64 `json:"dur_ms"`
	Spans    int     `json:"spans"`
	Procs    int     `json:"procs"`
	Hotspot  string  `json:"hotspot"` // the longest single span
	HotMS    float64 `json:"hot_ms"`
	HotOwner string  `json:"hot_owner"`
}

// PanicNote is one captured worker panic.
type PanicNote struct {
	Node  string `json:"node"`
	Task  string `json:"task"`
	Trace string `json:"trace,omitempty"`
	Err   string `json:"err"`
}

// Triage is the distilled report: what an operator reads first.
type Triage struct {
	SlowestTrace string          `json:"slowest_trace,omitempty"`
	Latency      []LatencyShift  `json:"latency,omitempty"`
	Movers       []CounterMover  `json:"movers,omitempty"`
	SlowTraces   []SlowTraceNote `json:"slow_traces,omitempty"`
	// CPUCaptures counts the raw CPU profiles collected fleet-wide; the
	// bundle holds them as nodes/<node>/cpu-<id>.pprof.
	CPUCaptures int         `json:"cpu_captures,omitempty"`
	Panics      []PanicNote `json:"panics,omitempty"`
	Notes       []string    `json:"notes,omitempty"`
}

// triage distills the collected bundle.
func triage(b *Bundle) *Triage {
	t := &Triage{}
	for _, n := range b.Nodes {
		t.nodeMetrics(n)
		t.CPUCaptures += len(n.CPU)
		t.nodePanics(n)
		if n.Flight != nil && n.Flight.Dropped > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: flight and span rings overwrote %d older entries",
				n.Service, n.Flight.Dropped))
		}
		for _, e := range n.Errors {
			t.Notes = append(t.Notes, n.Service+": "+e)
		}
	}
	// Per-fleet: keep only the biggest rate movers.
	sort.Slice(t.Movers, func(i, j int) bool {
		di := abs(t.Movers[i].LateRate - t.Movers[i].EarlyRate)
		dj := abs(t.Movers[j].LateRate - t.Movers[j].EarlyRate)
		if di != dj {
			return di > dj
		}
		return t.Movers[i].Node+t.Movers[i].Metric < t.Movers[j].Node+t.Movers[j].Metric
	})
	if len(t.Movers) > 8 {
		t.Movers = t.Movers[:8]
	}
	sort.Slice(t.Latency, func(i, j int) bool {
		if t.Latency[i].Regressed != t.Latency[j].Regressed {
			return t.Latency[i].Regressed
		}
		if t.Latency[i].LateMS != t.Latency[j].LateMS {
			return t.Latency[i].LateMS > t.Latency[j].LateMS
		}
		return t.Latency[i].Node+t.Latency[i].Metric < t.Latency[j].Node+t.Latency[j].Metric
	})

	for _, tr := range b.Traces {
		note := SlowTraceNote{ID: tr.ID, Root: tr.Root, DurMS: tr.DurMS, Spans: tr.Spans, Procs: tr.Procs}
		for _, r := range tr.Records {
			if ms := float64(r.DurNS) / 1e6; ms > note.HotMS {
				note.HotMS, note.Hotspot, note.HotOwner = ms, r.Name, r.Service
			}
		}
		t.SlowTraces = append(t.SlowTraces, note)
	}
	if len(t.SlowTraces) > 0 {
		t.SlowestTrace = t.SlowTraces[0].ID
	}
	for _, ep := range b.Unreachable {
		t.Notes = append(t.Notes, "unreachable: "+ep)
	}
	return t
}

// nodeMetrics derives latency shifts and counter movers from one node's
// history ring, comparing the first half of the window against the second.
func (t *Triage) nodeMetrics(n *NodeDiag) {
	if n.Metrics == nil || len(n.Metrics.Samples) < 3 {
		return
	}
	s := n.Metrics.Samples
	first, mid, last := s[0], s[len(s)/2], s[len(s)-1]
	early := seconds(mid.UNS - first.UNS)
	late := seconds(last.UNS - mid.UNS)
	if early <= 0 || late <= 0 {
		return
	}
	// Iterate the LAST sample's keys: the registry creates metrics lazily,
	// so one born after boot (when load first arrived — exactly the
	// interesting kind) is absent from the first samples. A missing early
	// value really was 0.
	for name, vl := range last.Values { // mmtvet:ok — results sorted by callers
		if strings.HasSuffix(name, "_count") || strings.HasSuffix(name, "_sum") {
			continue // handled as pairs below
		}
		v0, vm := first.Values[name], mid.Values[name]
		er, lr := (vm-v0)/early, (vl-vm)/late
		if er == lr {
			continue
		}
		t.Movers = append(t.Movers, CounterMover{Node: n.Service, Metric: name, EarlyRate: er, LateRate: lr})
	}
	for name := range last.Values { // mmtvet:ok — results sorted by callers
		base, ok := strings.CutSuffix(name, "_sum")
		if !ok {
			continue
		}
		cnt := base + "_count"
		if _, ok := last.Values[cnt]; !ok {
			continue
		}
		ea := window(first.Values[name], mid.Values[name], first.Values[cnt], mid.Values[cnt])
		la := window(mid.Values[name], last.Values[name], mid.Values[cnt], last.Values[cnt])
		if ea < 0 && la < 0 {
			continue // no observations in either half
		}
		shift := LatencyShift{Node: n.Service, Metric: base,
			EarlyMS: max0(ea) * 1000, LateMS: max0(la) * 1000}
		shift.Regressed = ea >= 0 && la > 1.5*ea && shift.LateMS > 1
		t.Latency = append(t.Latency, shift)
	}
}

// window returns the average observed value between two samples of a
// _sum/_count pair, or -1 when no observation landed in the window.
func window(sum0, sum1, cnt0, cnt1 float64) float64 {
	if cnt1 <= cnt0 {
		return -1
	}
	return (sum1 - sum0) / (cnt1 - cnt0)
}

func (t *Triage) nodePanics(n *NodeDiag) {
	if n.Flight == nil {
		return
	}
	for _, e := range n.Flight.Panics() {
		t.Panics = append(t.Panics, PanicNote{Node: n.Service, Task: e.Name, Trace: e.Trace, Err: e.Err})
	}
}

// WriteReport renders the triage as text, the bundle's triage.txt and the
// CLI's default output.
func (t *Triage) WriteReport(w io.Writer) {
	fmt.Fprintln(w, "== mmtdoctor triage ==")
	if len(t.Panics) > 0 {
		fmt.Fprintf(w, "\nPANICS (%d):\n", len(t.Panics))
		for _, p := range t.Panics {
			fmt.Fprintf(w, "  %s: task %s trace=%s: %s\n", p.Node, p.Task, p.Trace, p.Err)
		}
	}
	var regressed []LatencyShift
	for _, l := range t.Latency {
		if l.Regressed {
			regressed = append(regressed, l)
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(w, "\nlatency regressions (late half vs early half of the history window):\n")
		for _, l := range regressed {
			fmt.Fprintf(w, "  %-40s %-44s %.2fms -> %.2fms\n", l.Node, l.Metric, l.EarlyMS, l.LateMS)
		}
	} else if len(t.Latency) > 0 {
		fmt.Fprintf(w, "\nno latency regressions; steadiest-to-busiest averages:\n")
		for i, l := range t.Latency {
			if i == 4 {
				break
			}
			fmt.Fprintf(w, "  %-40s %-44s %.2fms -> %.2fms\n", l.Node, l.Metric, l.EarlyMS, l.LateMS)
		}
	}
	if len(t.Movers) > 0 {
		fmt.Fprintf(w, "\ntop metric movers (rate/s, early half -> late half):\n")
		for _, m := range t.Movers {
			fmt.Fprintf(w, "  %-40s %-44s %.2f/s -> %.2f/s\n", m.Node, m.Metric, m.EarlyRate, m.LateRate)
		}
	}
	if len(t.SlowTraces) > 0 {
		fmt.Fprintf(w, "\nslowest traces:\n")
		for _, s := range t.SlowTraces {
			fmt.Fprintf(w, "  %-36s %10.3fms %3d spans %2d procs  root=%s\n",
				s.ID, s.DurMS, s.Spans, s.Procs, s.Root)
			if s.Hotspot != "" {
				fmt.Fprintf(w, "  %36s hotspot: %s on %s (%.3fms)\n", "", s.Hotspot, s.HotOwner, s.HotMS)
			}
		}
		fmt.Fprintf(w, "slowest trace: %s (render it with `mmttrace -trace %s`)\n",
			t.SlowestTrace, t.SlowestTrace)
	} else {
		fmt.Fprintln(w, "\nno recent traces (the span rings are bounded; drive some load first)")
	}
	if t.CPUCaptures > 0 {
		fmt.Fprintf(w, "\n%d CPU captures; in the bundle, merge them with `go tool pprof -top nodes/*/cpu-*.pprof` (one process: nodes/<node>/cpu-*.pprof)\n",
			t.CPUCaptures)
	}
	if len(t.Notes) > 0 {
		fmt.Fprintf(w, "\nnotes:\n")
		for _, n := range t.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func max0(f float64) float64 {
	if f < 0 {
		return 0
	}
	return f
}
