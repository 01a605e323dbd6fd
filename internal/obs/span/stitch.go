package span

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one span in a stitched tree.
type Node struct {
	Record
	Children []*Node
}

// Tree is the result of stitching span records fetched from every fleet
// process: a forest of root spans (spans whose parent is absent from the
// set), ordered by start time.
type Tree struct {
	Roots    []*Node
	Services []string // distinct span services, sorted
	Traces   []string // distinct trace ids, sorted
	Count    int      // total spans after dedup
}

// Stitch builds the tree from records gathered across processes.
// Duplicate (trace, span) pairs — e.g. the same ring fetched twice — are
// dropped; children sort by start time.
func Stitch(records []Record) *Tree {
	type key struct{ trace, span string }
	nodes := make(map[key]*Node, len(records))
	order := make([]*Node, 0, len(records))
	for _, r := range records {
		k := key{r.TraceID, r.SpanID}
		if _, dup := nodes[k]; dup {
			continue
		}
		n := &Node{Record: r}
		nodes[k] = n
		order = append(order, n)
	}
	t := &Tree{Count: len(order)}
	services := make(map[string]bool)
	traces := make(map[string]bool)
	for _, n := range order {
		services[n.Service] = true
		traces[n.TraceID] = true
		if p, ok := nodes[key{n.TraceID, n.ParentID}]; ok && n.ParentID != "" {
			p.Children = append(p.Children, n)
		} else {
			t.Roots = append(t.Roots, n)
		}
	}
	for _, n := range order {
		sortNodes(n.Children)
	}
	sortNodes(t.Roots)
	for s := range services { // mmtvet:ok — sorted below
		if s != "" {
			t.Services = append(t.Services, s)
		}
	}
	for id := range traces { // mmtvet:ok — sorted below
		t.Traces = append(t.Traces, id)
	}
	sort.Strings(t.Services)
	sort.Strings(t.Traces)
	return t
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].StartUNS != ns[j].StartUNS {
			return ns[i].StartUNS < ns[j].StartUNS
		}
		return ns[i].Name < ns[j].Name
	})
}

// Links returns span contexts linked from this tree whose target trace is
// NOT part of it — the joiner-to-creator edges a renderer should chase.
func (t *Tree) Links() []SpanContext {
	present := make(map[string]bool, len(t.Traces))
	for _, id := range t.Traces {
		present[id] = true
	}
	var out []SpanContext
	seen := make(map[string]bool)
	t.Walk(func(n *Node, _ int) {
		if n.LinkTrace != "" && !present[n.LinkTrace] && !seen[n.LinkTrace] {
			seen[n.LinkTrace] = true
			out = append(out, SpanContext{TraceID: n.LinkTrace, SpanID: n.LinkSpan})
		}
	})
	return out
}

// Walk visits every node depth-first with its depth.
func (t *Tree) Walk(f func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		f(n, d)
		for _, c := range n.Children {
			rec(c, d)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
}

// Window returns the tree's wall-clock extent in unix nanoseconds.
func (t *Tree) Window() (start, end int64) {
	t.Walk(func(n *Node, _ int) {
		if start == 0 || n.StartUNS < start {
			start = n.StartUNS
		}
		if e := n.EndUNS(); e > end {
			end = e
		}
	})
	return start, end
}

const barWidth = 30

// WriteWaterfall renders the tree as a text waterfall: one row per span
// with its offset from the trace start, duration, a proportional bar,
// the owning process, and the span name with attributes. Dedup joiner
// links render as "link=<span>@<trace>".
func (t *Tree) WriteWaterfall(w io.Writer) {
	if t.Count == 0 {
		fmt.Fprintln(w, "no spans")
		return
	}
	start, end := t.Window()
	total := end - start
	fmt.Fprintf(w, "%d spans from %d processes (%s)",
		t.Count, len(t.Services), strings.Join(t.Services, ", "))
	if len(t.Traces) > 1 {
		fmt.Fprintf(w, ", %d traces", len(t.Traces))
	}
	fmt.Fprintf(w, ", total %s\n", fmtMS(total))

	svcWidth := len("process")
	for _, s := range t.Services {
		if len(s) > svcWidth {
			svcWidth = len(s)
		}
	}
	fmt.Fprintf(w, "%12s %13s  [%-*s] %-*s span\n",
		"offset", "duration", barWidth, "timeline", svcWidth, "process")
	var rec func(n *Node, depth int, prevTrace *string)
	rec = func(n *Node, depth int, prevTrace *string) {
		if *prevTrace != n.TraceID {
			*prevTrace = n.TraceID
			if len(t.Traces) > 1 {
				fmt.Fprintf(w, "— trace %s\n", n.TraceID)
			}
		}
		fmt.Fprintf(w, "%12s %13s  [%s] %-*s %s%s%s\n",
			fmtMS(n.StartUNS-start), "+"+fmtMS(n.DurNS),
			bar(n.StartUNS-start, n.DurNS, total),
			svcWidth, n.Service,
			strings.Repeat("· ", depth), n.Name, annotations(n.Record))
		for _, c := range n.Children {
			rec(c, depth+1, prevTrace)
		}
	}
	prev := ""
	for _, r := range t.Roots {
		rec(r, 0, &prev)
	}
}

// annotations renders a record's attributes (sorted) and link.
func annotations(r Record) string {
	s := FormatAttrs(r.Attrs)
	if r.LinkSpan != "" {
		s += fmt.Sprintf(" link=%s@%s", r.LinkSpan, r.LinkTrace)
	}
	return s
}

// FormatAttrs renders span attributes as " key=value" pairs in key order.
func FormatAttrs(attrs map[string]string) string {
	var b strings.Builder
	keys := make([]string, 0, len(attrs))
	for k := range attrs { // mmtvet:ok — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}

// bar renders a span's position within the trace window.
func bar(off, dur, total int64) string {
	b := []byte(strings.Repeat(" ", barWidth))
	if total <= 0 {
		b[0] = '#'
		return string(b)
	}
	lo := int(off * barWidth / total)
	hi := int((off + dur) * barWidth / total)
	if lo >= barWidth {
		lo = barWidth - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > barWidth {
		hi = barWidth
	}
	for i := lo; i < hi; i++ {
		b[i] = '#'
	}
	return string(b)
}

// fmtMS renders nanoseconds as milliseconds.
func fmtMS(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }
