// Package span is the fleet's distributed tracing layer: stdlib-only
// spans propagated across processes as a W3C-style "traceparent" HTTP
// header, so one job's latency decomposes hop by hop — client submit,
// router placement (route/steal/proxy), node admission and queueing,
// dedup joins, runner scheduling and cache probes, and the simulated
// cycle loop itself.
//
// The design deliberately unifies the span trace id with the serving
// layer's job trace id: both are free-form printable ASCII, so a
// client-chosen correlation id like "load-5-0" names the whole distributed
// trace, and every surface that already speaks trace ids (flight entries,
// Prometheus exemplars, JobStatus) points into the same tree. The
// traceparent codec is therefore tolerant: the trace-id field may contain
// dashes; the parser anchors on the fixed-width span-id field instead.
//
// Each process keeps its finished spans in a bounded in-memory ring
// (oldest overwritten first) served at GET /v1/spans — cmd/mmttrace
// fetches the rings of every fleet process and stitches the tree.
//
// Producers hold a *Tracer and may keep it nil: every method on a nil
// Tracer or nil Span is a no-op, so instrumentation sites need no guards.
package span

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Header is the propagation header name (W3C trace context).
const Header = "traceparent"

const (
	version = "00"
	flags   = "01"
)

// MaxTraceIDLen bounds trace ids, matching the serving layer's limit on
// client-chosen correlation ids.
const MaxTraceIDLen = 128

// SpanContext identifies one span within one trace. ParentID is the
// span's parent within the same trace (empty for roots). The zero value
// is "no context".
type SpanContext struct {
	TraceID  string
	SpanID   string
	ParentID string
}

// Valid reports whether the context identifies a span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Traceparent renders the context in wire form:
// "00-<trace-id>-<span-id>-01". Empty when the context is not valid.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return version + "-" + sc.TraceID + "-" + sc.SpanID + "-" + flags
}

// ValidTraceID reports whether s can serve as a trace id: non-empty,
// at most MaxTraceIDLen bytes, printable ASCII with no spaces — the same
// rule the serving layer applies to client-chosen correlation ids, which
// is what makes the two id spaces unifiable.
func ValidTraceID(s string) bool {
	if s == "" || len(s) > MaxTraceIDLen {
		return false
	}
	for _, r := range s {
		if r < 0x21 || r > 0x7e {
			return false
		}
	}
	return true
}

// Parse decodes a traceparent header. Unlike a strict W3C parser it
// accepts free-form trace ids containing dashes: the span-id field is
// fixed-width hex, so the header is parsed from its ends — version first,
// flags last, span id second-to-last — and whatever sits between version
// and span id is the trace id. Returns the zero context on any mismatch.
func Parse(h string) SpanContext {
	parts := strings.Split(h, "-")
	if len(parts) < 4 || parts[0] != version {
		return SpanContext{}
	}
	if !isHex(parts[len(parts)-1], 2) {
		return SpanContext{}
	}
	spanID := parts[len(parts)-2]
	if !isHex(spanID, 16) {
		return SpanContext{}
	}
	traceID := strings.Join(parts[1:len(parts)-2], "-")
	if !ValidTraceID(traceID) {
		return SpanContext{}
	}
	return SpanContext{TraceID: traceID, SpanID: spanID}
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Inject writes the context into an outgoing request's headers.
func Inject(h http.Header, sc SpanContext) {
	if tp := sc.Traceparent(); tp != "" {
		h.Set(Header, tp)
	}
}

// Extract reads the context from an incoming request's headers, zero when
// absent or malformed.
func Extract(h http.Header) SpanContext { return Parse(h.Get(Header)) }

// NewTraceID mints a random 32-hex-character trace id.
func NewTraceID() string { return randHex(16) }

func newSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a broken entropy
		// source must not take the serving path down over telemetry ids.
		for i := range b {
			b[i] = byte(i*37 + 11)
		}
	}
	return hex.EncodeToString(b)
}

type ctxKey struct{}

// ContextWith returns a context carrying sc, for propagation through
// call chains that end in an outgoing HTTP request (Inject reads it back
// via FromContext at the client).
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the span context carried by ctx, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Record is one finished span as kept in the ring and served over the
// wire. Times are wall-clock (unix nanoseconds) with the duration taken
// from the monotonic clock.
type Record struct {
	TraceID   string            `json:"trace_id"`
	SpanID    string            `json:"span_id"`
	ParentID  string            `json:"parent_id,omitempty"`
	Name      string            `json:"name"`
	Service   string            `json:"service,omitempty"`
	StartUNS  int64             `json:"start_uns"`
	DurNS     int64             `json:"dur_ns"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	LinkTrace string            `json:"link_trace,omitempty"`
	LinkSpan  string            `json:"link_span,omitempty"`
}

// EndUNS is the span's end time in unix nanoseconds.
func (r Record) EndUNS() int64 { return r.StartUNS + r.DurNS }

// DefaultCapacity is the span ring's default size.
const DefaultCapacity = 4096

// Tracer mints spans for one process (or one service within it) and keeps
// the finished ones in a bounded ring, oldest overwritten first. It
// implements http.Handler for the GET /v1/spans endpoint. A nil *Tracer
// is valid and records nothing.
type Tracer struct {
	service string

	mu       sync.Mutex
	buf      []Record
	next     int // overwrite cursor once the ring is full
	dropped  uint64
	observer func(Record)
}

// NewTracer returns a tracer whose spans carry the given service label
// (e.g. "mmtserved@127.0.0.1:8391"). capacity <= 0 selects
// DefaultCapacity.
func NewTracer(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{service: service, buf: make([]Record, 0, capacity)}
}

// Service returns the tracer's service label.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Start opens a span as a child of parent. A parent with a trace id but
// no span id roots a new subtree within that trace (the serving layer
// does this when a job carries a correlation id but no traceparent); a
// zero parent mints a fresh trace id. Returns nil on a nil tracer.
func (t *Tracer) Start(parent SpanContext, name string) *Span {
	return t.StartAt(parent, name, time.Now())
}

// StartAt is Start with an explicit start time, for spans that began
// before the instrumentation point could run (queue waits).
func (t *Tracer) StartAt(parent SpanContext, name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	sc := SpanContext{TraceID: parent.TraceID, ParentID: parent.SpanID, SpanID: newSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = NewTraceID()
	}
	return &Span{tracer: t, sc: sc, name: name, start: at}
}

// SetObserver registers fn to receive every finished span record after it
// lands in the ring — the runner's -trace-out file and mmtload's span log
// stream from here; flight dumps read the ring itself. fn runs on the
// goroutine that ended the span and must be fast; nil unregisters.
func (t *Tracer) SetObserver(fn func(Record)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// push stores a finished span, overwriting the oldest once full.
func (t *Tracer) push(r Record) {
	r.Service = t.service
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else {
		t.buf[t.next] = r
		t.next = (t.next + 1) % len(t.buf)
		t.dropped++
	}
	fn := t.observer
	t.mu.Unlock()
	if fn != nil {
		fn(r)
	}
}

// Dropped returns how many finished spans the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns how many spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Records returns the ring's spans for one trace id (all of them for "").
func (t *Tracer) Records(traceID string) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, 16)
	for _, r := range t.buf {
		if traceID == "" || r.TraceID == traceID {
			out = append(out, r)
		}
	}
	return out
}

// Span is one in-progress span. All methods are nil-safe; End is
// idempotent and pushes the finished record into the tracer's ring.
type Span struct {
	tracer *Tracer
	sc     SpanContext
	name   string
	start  time.Time

	mu        sync.Mutex
	attrs     map[string]string
	linkTrace string
	linkSpan  string
	ended     bool
}

// Context returns the span's identity (zero on a nil span), for
// propagation to children and over the wire.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace id ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID
}

// SetAttr attaches a key/value attribute, shown in the waterfall and the
// Chrome export. Calls after End are dropped.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// Link records a causal reference to a span in another trace — a dedup
// joiner links to the creator's execution span. Only the first link is
// kept.
func (s *Span) Link(sc SpanContext) {
	if s == nil || !sc.Valid() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended || s.linkSpan != "" {
		return
	}
	s.linkTrace, s.linkSpan = sc.TraceID, sc.SpanID
}

// End finishes the span and pushes it into the ring. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	linkTrace, linkSpan := s.linkTrace, s.linkSpan
	s.mu.Unlock()
	s.tracer.push(Record{
		TraceID:   s.sc.TraceID,
		SpanID:    s.sc.SpanID,
		ParentID:  s.sc.ParentID,
		Name:      s.name,
		StartUNS:  s.start.UnixNano(),
		DurNS:     int64(time.Since(s.start)),
		Attrs:     attrs,
		LinkTrace: linkTrace,
		LinkSpan:  linkSpan,
	})
}
