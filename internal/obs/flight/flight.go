// Package flight is the fleet's black-box recorder: an always-on, bounded,
// allocation-free ring of what no other store in the process holds —
// marks, structured log lines and captured panics. A dump joins that ring
// with the process's span ring (the job timeline), read at the moment the
// dump is taken, so each fact is recorded once. When a node stalls or
// dies *after the fact*, the dump is the replay: it is served live at
// GET /v1/debug/flight, written to disk on SIGQUIT or a captured worker
// panic, and rendered offline by `mmttrace -from-dump`.
//
// Recording copies fixed-size values into a preallocated slot under a
// mutex: no allocation, no I/O, no encoding — the ring costs one lock and
// a struct copy. Every method on a nil *Recorder is a no-op.
package flight

import (
	"os"
	"sort"
	"sync"
	"time"

	"mmt/internal/obs/span"
)

// Kind classifies one ring entry.
type Kind uint8

const (
	// KindMark is a free-form annotation (process start, a captured
	// panic's task key).
	KindMark Kind = iota
	// KindSpan is a finished span, read from the span ring when a dump is
	// taken: Name is the span name, Trace its trace id, TS its start
	// (unix ns), Dur its duration in ns, Attrs its attributes.
	KindSpan
	// KindLog is a structured log line: Name holds the rendered message,
	// Arg the slog level + 8 (so debug=-4 fits an unsigned slot).
	KindLog
	// KindPanic is a captured worker panic: Name the job name, Err the
	// panic value, Trace the job's correlation id.
	KindPanic

	numKinds // internal bound
)

var kindNames = [numKinds]string{
	KindMark:  "mark",
	KindSpan:  "span",
	KindLog:   "log",
	KindPanic: "panic",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind-?"
}

// MarshalText renders the kind as its stable name so dumps stay grep-able.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	// Tolerate dumps from other builds (newer kinds, or the retired
	// "event", "sample", "admit" and "complete"): unknown kinds render as
	// kind-?.
	*k = numKinds
	return nil
}

// Entry is one ring slot or one dump row. All fields are fixed-size values
// (string and map headers included), so recording one is a struct copy
// into preallocated storage. Field meaning varies by Kind; unused slots
// stay zero and are omitted from dumps. Span rows carry no Seq: they come
// from the span ring, not this one.
type Entry struct {
	Seq   uint64            `json:"seq,omitempty"`
	UNS   int64             `json:"uns"` // wall clock at record time (a span's end), unix nanoseconds
	Kind  Kind              `json:"kind"`
	Name  string            `json:"name,omitempty"`
	Trace string            `json:"trace,omitempty"`
	TS    uint64            `json:"ts,omitempty"`
	Arg   uint64            `json:"arg,omitempty"`
	Dur   uint64            `json:"dur,omitempty"`
	Err   string            `json:"err,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// DefaultCapacity is the ring's default slot count.
const DefaultCapacity = 4096

// Recorder is the bounded flight ring for one process. A nil *Recorder is
// valid and records nothing, so wiring sites need no guards. It implements
// http.Handler for the GET /v1/debug/flight endpoint.
type Recorder struct {
	service string
	tracer  *span.Tracer // the job timeline a dump merges in; may be nil

	mu      sync.Mutex
	buf     []Entry // preallocated to capacity; len grows to cap then stays
	next    int     // overwrite cursor once full
	seq     uint64
	dropped uint64
}

// New returns a ring for the given service label ("mmtserved@host:port")
// whose dumps carry tracer's finished spans (none when tracer is nil).
// capacity <= 0 selects DefaultCapacity.
func New(service string, capacity int, tracer *span.Tracer) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{service: service, tracer: tracer, buf: make([]Entry, 0, capacity)}
}

// Service returns the ring's service label ("" on nil).
func (r *Recorder) Service() string {
	if r == nil {
		return ""
	}
	return r.service
}

// record stamps and stores one entry, overwriting the oldest once full.
func (r *Recorder) record(e Entry) {
	e.UNS = time.Now().UnixNano()
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Mark records a free-form annotation.
func (r *Recorder) Mark(name string) {
	if r == nil {
		return
	}
	r.record(Entry{Kind: KindMark, Name: name})
}

// Log records a rendered structured-log line. level is the slog level
// value; it is offset by +8 into Arg so debug (-4) survives the unsigned
// slot.
func (r *Recorder) Log(level int, msg, trace string) {
	if r == nil {
		return
	}
	r.record(Entry{Kind: KindLog, Name: msg, Trace: trace, Arg: uint64(level + 8)})
}

// Panic records a captured worker panic: name labels the job, key is its
// content-addressed task key, trace its correlation id, v the panic value.
func (r *Recorder) Panic(name, key, trace, v string) {
	if r == nil {
		return
	}
	r.record(Entry{Kind: KindPanic, Name: name, Err: v, Trace: trace})
	// The key is recorded as its own mark so the dump names the exact
	// experiment to replay, however long the key string is.
	r.record(Entry{Kind: KindMark, Name: "panic task key: " + key, Trace: trace})
}

// Len returns how many entries the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many entries the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Entries returns the ring's contents oldest-first.
func (r *Recorder) Entries() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Snapshot assembles a Dump of the ring and the span ring as they stand:
// each finished span becomes a KindSpan row, and the rows are ordered by
// UNS (a span's end).
func (r *Recorder) Snapshot(reason string) Dump {
	d := Dump{
		Service:  r.Service(),
		Reason:   reason,
		PID:      os.Getpid(),
		TakenUNS: time.Now().UnixNano(),
		Dropped:  r.Dropped(),
		Entries:  r.Entries(),
	}
	if r == nil || r.tracer == nil {
		return d
	}
	d.Dropped += r.tracer.Dropped()
	for _, s := range r.tracer.Records("") {
		d.Entries = append(d.Entries, Entry{UNS: s.EndUNS(), Kind: KindSpan, Name: s.Name,
			Trace: s.TraceID, TS: uint64(s.StartUNS), Dur: uint64(s.DurNS), Attrs: s.Attrs})
	}
	sort.SliceStable(d.Entries, func(i, j int) bool { return d.Entries[i].UNS < d.Entries[j].UNS })
	return d
}
