package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mmt/internal/cluster"
	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
)

// RunTrace is the mmttrace command: it fetches one trace's spans from
// every process in the fleet — the router, each mmtserved node discovered
// via /v1/cluster, and any extra -sources — stitches them into one tree,
// and renders a text waterfall (and optionally a Chrome trace-event file).
// Without -trace it lists recent traces fleet-wide; -slowest N ranks them
// by duration instead of recency. -from-dump renders an on-disk flight
// dump instead (e.g. one a SIGQUIT'd node left behind).
func RunTrace(args []string, stdout io.Writer) error {
	return runTrace(args, stdout, os.Stderr)
}

// runTrace is RunTrace with the warning stream exposed (for tests).
func runTrace(args []string, stdout, progress io.Writer) error {
	fs := newFlags("mmttrace", stdout)
	var (
		server  = fs.String("server", "http://127.0.0.1:8378", "router (or single mmtserved) base URL; fleet nodes are discovered via its /v1/cluster")
		sources = fs.String("sources", "", "extra comma-separated base URLs to also fetch spans from (e.g. an mmtcached)")
		traceID = fs.String("trace", "", "trace id to stitch and render (empty = list recent traces)")
		slowest = fs.Int("slowest", 0, "list the N slowest recent traces across the fleet instead of the newest")
		limit   = fs.Int("limit", 20, "how many traces to list without -slowest")
		chrome  = fs.String("chrome", "", "also write the stitched trace as Chrome trace-event JSON (open in Perfetto)")
		timeout = fs.Duration("timeout", 10*time.Second, "overall fetch timeout")
		dump    = fs.String("from-dump", "", "render this on-disk flight dump file and exit")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if *dump != "" {
		d, err := flight.ReadDump(*dump)
		if err != nil {
			return err
		}
		d.Render(stdout)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	eps, err := discover(ctx, *server, strings.Split(*sources, ","))
	if err != nil && progress != nil {
		fmt.Fprintf(progress, "mmttrace: no cluster behind %s (%v); querying it alone\n", *server, err)
	}

	if *traceID == "" {
		n := *limit
		if *slowest > 0 {
			n = *slowest
		}
		return listTraces(ctx, stdout, eps, *slowest > 0, n)
	}

	tree, err := fetchStitched(ctx, eps, *traceID, func(ep string, err error) {
		if progress != nil {
			fmt.Fprintf(progress, "mmttrace: %s: %v (skipping)\n", ep, err)
		}
	})
	if err != nil {
		return err
	}
	tree.WriteWaterfall(stdout)
	if *chrome != "" {
		if err := writeChromeTrace(*chrome, tree); err != nil {
			return err
		}
		if progress != nil {
			fmt.Fprintf(progress, "mmttrace: wrote Chrome trace %s\n", *chrome)
		}
	}
	return nil
}

// listTraces merges every process's recent-trace summaries and prints
// them: newest first, or the slowest (by fleet-wide wall-clock window)
// when bySlowest is set.
func listTraces(ctx context.Context, w io.Writer, eps []string, bySlowest bool, n int) error {
	list, reached := mergeTraces(ctx, eps)
	if reached == 0 {
		return errors.New("no span endpoint reachable (is the fleet running?)")
	}
	sort.SliceStable(list, func(i, j int) bool {
		if bySlowest {
			return list[i].DurNS() > list[j].DurNS()
		}
		return list[i].Start > list[j].Start
	})
	if len(list) > n {
		list = list[:n]
	}
	fmt.Fprintf(w, "%-36s %12s %6s %6s  %s\n", "trace", "duration", "spans", "procs", "root")
	for _, m := range list {
		fmt.Fprintf(w, "%-36s %12s %6d %6d  %s\n",
			m.ID, fmt.Sprintf("%.3fms", float64(m.DurNS())/1e6), m.Spans, m.Procs, m.Root)
	}
	return nil
}

// discover resolves the fleet behind server: the server itself, every
// node its /v1/cluster reports when it is a router, then the extra
// sources (blank entries are skipped). Order is stable and duplicates
// collapse. When server is not a router, err says why and the server
// counts as a single node.
func discover(ctx context.Context, server string, sources []string) (eps []string, err error) {
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
		for _, n := range stats.Nodes {
			add(n.Node.URL)
		}
	}
	for _, s := range sources {
		add(s)
	}
	return eps, err
}

// fleetTrace is one trace's recent-trace summaries merged across the
// processes that recorded part of it.
type fleetTrace struct {
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
func (t *fleetTrace) DurNS() int64 { return t.End - t.Start }

// mergeTraces fetches every endpoint's recent-trace summaries and merges
// them by trace id, in id order; reached counts the endpoints that
// answered.
func mergeTraces(ctx context.Context, eps []string) (traces []*fleetTrace, reached int) {
	merged := make(map[string]*fleetTrace)
	for _, ep := range eps {
		tr, err := span.FetchTraces(ctx, nil, ep, 100)
		if err != nil {
			continue
		}
		reached++
		for _, s := range tr.Traces {
			m := merged[s.TraceID]
			if m == nil {
				m = &fleetTrace{ID: s.TraceID, Start: s.StartUNS}
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
	traces = make([]*fleetTrace, 0, len(merged))
	for _, m := range merged { // mmtvet:ok — sorted below
		traces = append(traces, m)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].ID < traces[j].ID })
	return traces, reached
}

// fetchStitched gathers one trace's spans from every endpoint and
// stitches them. Dedup joiner spans link to the creator's trace; those
// linked traces are fetched too (bounded depth), so a joined submission
// stitches alongside the execution that actually served it. warn hears
// about each endpoint that failed and was skipped.
func fetchStitched(ctx context.Context, eps []string, traceID string, warn func(ep string, err error)) (*span.Tree, error) {
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
					warn(ep, err)
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

// writeChromeTrace exports the stitched tree as Chrome trace-event JSON:
// one named track per fleet process, spans as complete events offset from
// the trace start.
func writeChromeTrace(path string, t *span.Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewChromeTrace(f, obs.ChromeTraceConfig{
		Process:     "mmt fleet",
		TrackPrefix: "process",
		Meta: map[string]string{
			"version": Version(),
			"traces":  strings.Join(t.Traces, ","),
		},
	})
	tracks := make(map[string]int32, len(t.Services))
	for i, svc := range t.Services {
		tracks[svc] = int32(i)
		sink.NameTrack(int32(i), svc)
	}
	start, _ := t.Window()
	t.Walk(func(n *span.Node, _ int) {
		chromeSpan(sink, tracks[n.Service], start, n.Record)
	})
	if err := sink.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeSpan appends one finished span to sink as a complete event on
// track, timed from base (unix ns), with the trace and span ids, link and
// attributes as args: the span→Chrome mapping behind both mmttrace
// -chrome and the runner's -trace-out.
func chromeSpan(sink *obs.ChromeTraceSink, track int32, base int64, r span.Record) {
	args := map[string]any{"trace": r.TraceID, "span": r.SpanID}
	for k, v := range r.Attrs { // mmtvet:ok — viewer payload, order-free
		args[k] = v
	}
	if r.LinkSpan != "" {
		args["link"] = r.LinkSpan + "@" + r.LinkTrace
	}
	dur := uint64(r.DurNS) / 1000
	if dur == 0 {
		dur = 1 // zero-width spans vanish in the viewer
	}
	var ts uint64
	if r.StartUNS > base {
		ts = uint64(r.StartUNS-base) / 1000
	}
	sink.Span(track, r.Name, ts, dur, args)
}
