// Package doctor is the fleet diagnostics engine behind mmtdoctor: it
// discovers every process in an mmt fleet, pulls each one's flight ring,
// span ring, metrics history, continuous-profiler captures and resolved
// configuration into a single reproducible bundle, and distills a triage
// report — which metrics moved, which traces were slowest and where their
// time went, how many CPU captures the bundle holds for `go tool pprof`,
// and whether any process recorded a panic. The collector is read-only:
// it only issues GETs against the debug surface every daemon already
// serves.
package doctor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/history"
	"mmt/internal/obs/profiled"
	"mmt/internal/obs/span"
)

// BundleSchema versions the on-disk bundle manifest.
const BundleSchema = 2

// Options configures one collection sweep.
type Options struct {
	// Server is the entry point: a router (its /v1/cluster expands to the
	// whole fleet) or a single mmtserved.
	Server string
	// Sources are extra base URLs to collect from (e.g. an mmtcached,
	// which no /v1/cluster reports); blank entries are skipped.
	Sources []string
	// SlowTraces is how many of the slowest recent traces to stitch into
	// the bundle (<= 0 means 3).
	SlowTraces int
	// Version labels the manifest with the collecting tool's version.
	Version string
	// Progress, when non-nil, receives one line per endpoint and warning.
	Progress io.Writer
}

func (o *Options) defaults() {
	if o.SlowTraces <= 0 {
		o.SlowTraces = 3
	}
	if o.Progress == nil {
		o.Progress = io.Discard
	}
}

// NodeDiag is everything collected from one process.
type NodeDiag struct {
	Base    string `json:"base"`
	Service string `json:"service"` // the process's own label, e.g. "mmtserved@127.0.0.1:8377"

	Flight   *flight.Dump            `json:"-"` // written as nodes/<node>/flight.json
	Metrics  *history.Response       `json:"-"` // nodes/<node>/metrics.json
	Profiles *profiled.IndexResponse `json:"-"` // nodes/<node>/profiles.json
	CPU      []CPUCapture            `json:"-"` // nodes/<node>/cpu-<id>.pprof
	Config   json.RawMessage         `json:"-"` // nodes/<node>/config.json

	// Errors lists per-endpoint fetch failures; a node with no flight
	// ring at all is dropped instead.
	Errors []string `json:"errors,omitempty"`
}

// CPUCapture is one raw CPU profile from a node's profiler ring; its id
// keys the start time in profiles.json.
type CPUCapture struct {
	ID  int
	Raw []byte
}

// TraceDiag is one stitched slow trace.
type TraceDiag struct {
	ID      string        `json:"id"`
	Root    string        `json:"root"`
	DurMS   float64       `json:"dur_ms"`
	Spans   int           `json:"spans"`
	Procs   int           `json:"procs"`
	Records []span.Record `json:"records"`
}

// Bundle is one collection sweep's result, held in memory until Write.
type Bundle struct {
	Schema   int    `json:"schema"`
	Version  string `json:"version,omitempty"`
	Server   string `json:"server"`
	TakenUNS int64  `json:"taken_uns"`

	Cluster *cluster.ClusterStats `json:"-"` // cluster.json, when the server is a router
	Nodes   []*NodeDiag           `json:"nodes"`
	Traces  []TraceDiag           `json:"-"` // traces/<id>.json
	Triage  *Triage               `json:"-"` // triage.json + triage.txt

	// Unreachable lists endpoints that answered nothing at all.
	Unreachable []string `json:"unreachable,omitempty"`
}

// Collect sweeps the fleet once. It degrades rather than fails: a node
// missing one endpoint records the error and keeps the rest; only a sweep
// that reaches no flight ring at all errors out.
func Collect(ctx context.Context, opts Options) (*Bundle, error) {
	opts.defaults()
	b := &Bundle{Schema: BundleSchema, Version: opts.Version, Server: opts.Server,
		TakenUNS: time.Now().UnixNano()}

	eps, cs, err := Discover(ctx, opts.Server, opts.Sources)
	if err != nil {
		fmt.Fprintf(opts.Progress, "doctor: no cluster behind %s (%v); treating it as a single node\n",
			opts.Server, err)
	}
	b.Cluster = cs
	for _, ep := range eps {
		n := collectNode(ctx, &opts, ep)
		if n == nil {
			b.Unreachable = append(b.Unreachable, ep)
			fmt.Fprintf(opts.Progress, "doctor: %s: unreachable (no flight ring), skipping\n", ep)
			continue
		}
		fmt.Fprintf(opts.Progress, "doctor: collected %s (%s)\n", n.Service, n.Base)
		b.Nodes = append(b.Nodes, n)
	}
	if len(b.Nodes) == 0 {
		return nil, fmt.Errorf("doctor: no node reachable (tried %s)", strings.Join(eps, ", "))
	}

	collectTraces(ctx, &opts, b, eps)
	b.Triage = triage(b)
	return b, nil
}

// Discover resolves the fleet behind server: the server itself, every
// node its /v1/cluster reports when it is a router, then the extra
// sources (blank entries are skipped). Order is stable and duplicates
// collapse. cs is the router's cluster snapshot; when server is not a
// router it is nil and err says why, and the server counts as a single
// node.
func Discover(ctx context.Context, server string, sources []string) (eps []string, cs *cluster.ClusterStats, err error) {
	seen := make(map[string]bool)
	add := func(base string) {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" || seen[base] {
			return
		}
		seen[base] = true
		eps = append(eps, base)
	}
	add(server)
	stats, err := cluster.FetchClusterStats(ctx, nil, server)
	if err == nil {
		cs = &stats
		for _, n := range stats.Nodes {
			add(n.Node.URL)
		}
	}
	for _, s := range sources {
		add(s)
	}
	return eps, cs, err
}

// collectNode pulls one process's whole debug surface. The flight ring is
// the liveness probe: without it the node is reported unreachable.
func collectNode(ctx context.Context, opts *Options, base string) *NodeDiag {
	var d flight.Dump
	if err := fetchJSON(ctx, base+"/v1/debug/flight", &d); err != nil {
		return nil
	}
	n := &NodeDiag{Base: base, Service: d.Service, Flight: &d}
	record := func(what string, err error) {
		n.Errors = append(n.Errors, what+": "+err.Error())
		fmt.Fprintf(opts.Progress, "doctor: %s: %s: %v\n", base, what, err)
	}

	var hist history.Response
	if err := fetchJSON(ctx, base+"/v1/debug/metrics", &hist); err != nil {
		record("metrics history", err)
	} else {
		n.Metrics = &hist
	}

	var idx profiled.IndexResponse
	if err := fetchJSON(ctx, base+"/v1/debug/profiles", &idx); err != nil {
		record("profile index", err)
	} else {
		n.Profiles = &idx
		for _, c := range idx.Captures {
			if c.Kind != "cpu" {
				continue
			}
			raw, err := fetchBytes(ctx, fmt.Sprintf("%s/v1/debug/profiles?id=%d", base, c.ID))
			if err != nil {
				record(fmt.Sprintf("cpu capture %d", c.ID), err)
				continue
			}
			n.CPU = append(n.CPU, CPUCapture{ID: c.ID, Raw: raw})
		}
	}

	var cfg json.RawMessage
	if err := fetchJSON(ctx, base+"/v1/debug/config", &cfg); err != nil {
		record("config", err)
	} else {
		n.Config = cfg
	}
	return n
}

// FleetTrace is one trace's recent-trace summaries merged across the
// processes that recorded part of it.
type FleetTrace struct {
	ID string
	// Root is the root span of the process that saw the trace first
	// (e.g. router.submit rather than a node's serve.submit).
	Root         string
	Spans, Procs int
	// Start and End bound the fleet-wide wall-clock window (unix ns).
	Start, End int64

	rootStart int64
}

// DurNS is the trace's fleet-wide wall-clock duration.
func (t *FleetTrace) DurNS() int64 { return t.End - t.Start }

// MergeTraces fetches every endpoint's recent-trace summaries and merges
// them by trace id, in id order; reached counts the endpoints that
// answered.
func MergeTraces(ctx context.Context, eps []string) (traces []*FleetTrace, reached int) {
	merged := make(map[string]*FleetTrace)
	for _, ep := range eps {
		tr, err := span.FetchTraces(ctx, nil, ep, 100)
		if err != nil {
			continue
		}
		reached++
		for _, s := range tr.Traces {
			m := merged[s.TraceID]
			if m == nil {
				m = &FleetTrace{ID: s.TraceID, Start: s.StartUNS}
				merged[s.TraceID] = m
			}
			m.Spans += s.Spans
			m.Procs++
			if s.StartUNS < m.Start {
				m.Start = s.StartUNS
			}
			if end := s.StartUNS + int64(s.DurMS*1e6); end > m.End {
				m.End = end
			}
			if m.Root == "" || s.StartUNS < m.rootStart {
				m.Root, m.rootStart = s.Root, s.StartUNS
			}
		}
	}
	traces = make([]*FleetTrace, 0, len(merged))
	for _, m := range merged { // mmtvet:ok — sorted below
		traces = append(traces, m)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
	return traces, reached
}

// collectTraces ranks the fleet's recent traces by duration and stitches
// the slowest into the bundle, each through FetchStitched — the tree
// mmttrace renders, so a dedup joiner's trace carries the execution that
// served it.
func collectTraces(ctx context.Context, opts *Options, b *Bundle, eps []string) {
	list, _ := MergeTraces(ctx, eps)
	sort.SliceStable(list, func(i, j int) bool { return list[i].DurNS() > list[j].DurNS() })
	if len(list) > opts.SlowTraces {
		list = list[:opts.SlowTraces]
	}
	for _, m := range list {
		tree, err := FetchStitched(ctx, eps, m.ID, nil)
		if err != nil {
			continue
		}
		var records []span.Record
		tree.Walk(func(n *span.Node, _ int) { records = append(records, n.Record) })
		start, end := tree.Window()
		b.Traces = append(b.Traces, TraceDiag{
			ID:      m.ID,
			Root:    m.Root,
			DurMS:   float64(end-start) / 1e6,
			Spans:   tree.Count,
			Procs:   len(tree.Services),
			Records: records,
		})
	}
}

// FetchStitched gathers one trace's spans from every endpoint and
// stitches them. Dedup joiner spans link to the creator's trace; those
// linked traces are fetched too (bounded depth), so a joined submission
// stitches alongside the execution that actually served it. warn, when
// non-nil, hears about each endpoint that failed and was skipped.
func FetchStitched(ctx context.Context, eps []string, traceID string, warn func(ep string, err error)) (*span.Tree, error) {
	var (
		records []span.Record
		fetched = make(map[string]bool)
		failed  = make(map[string]bool)
		reached = 0
	)
	queue := []string{traceID}
	for depth := 0; len(queue) > 0 && depth < 4; depth++ {
		ids := queue
		queue = nil
		for _, id := range ids {
			if fetched[id] {
				continue
			}
			fetched[id] = true
			for _, ep := range eps {
				if failed[ep] {
					continue
				}
				sr, err := span.FetchSpans(ctx, nil, ep, id)
				if err != nil {
					failed[ep] = true
					if warn != nil {
						warn(ep, err)
					}
					continue
				}
				reached++
				records = append(records, sr.Spans...)
			}
		}
		for _, link := range span.Stitch(records).Links() {
			if !fetched[link.TraceID] {
				queue = append(queue, link.TraceID)
			}
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("no span endpoint reachable (tried %s)", strings.Join(eps, ", "))
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("no spans for trace %q on %d endpoints — traces live in a bounded in-memory ring, so old ones age out", traceID, reached)
	}
	return span.Stitch(records), nil
}

func fetchJSON(ctx context.Context, url string, out any) error {
	raw, err := fetchBytes(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func fetchBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}
