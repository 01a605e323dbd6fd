// Package profiled is the continuous profiler: it periodically captures
// CPU, heap and goroutine pprof profiles into a bounded in-memory ring,
// so "what was hot during the 14:02 p99 spike" is answerable after the
// fact without having had pprof attached. The ring is served at
// GET /v1/debug/profiles (JSON index and raw pprof bytes by id), and
// mmtdoctor pulls every capture into diagnosis bundles, where
// `go tool pprof` reads and merges them.
//
// The profiler is deliberately duty-cycled: each round it runs the CPU
// profiler for CPUDuration out of Every, so steady-state overhead stays
// proportional to the duty cycle (the default 5s/60s keeps it under 1%).
// Heap and goroutine snapshots are point-in-time and effectively free.
package profiled

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// Options configures a Profiler.
type Options struct {
	// Every is the capture round cadence (default 60s).
	Every time.Duration
	// CPUDuration is how long each round's CPU profile runs; it is
	// clamped to at most half of Every (default 5s).
	CPUDuration time.Duration
	// Capacity bounds how many captures of each kind the ring keeps
	// (default 16 — 16 minutes of history at the default cadence).
	Capacity int
	// OnError, when non-nil, receives capture failures (e.g. the CPU
	// profiler already running via /debug/pprof/profile). Failures skip
	// the round; they never stop the loop.
	OnError func(error)
}

// Capture is one stored profile.
type Capture struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"` // "cpu", "heap" or "goroutine"
	StartUNS int64  `json:"start_uns"`
	DurNS    int64  `json:"dur_ns"` // CPU window; 0 for snapshots
	Size     int    `json:"size"`

	bytes []byte // raw (gzipped protobuf) pprof profile
}

// IndexResponse is the GET /v1/debug/profiles body.
type IndexResponse struct {
	Service  string    `json:"service,omitempty"`
	EveryMS  int64     `json:"every_ms"`
	Captures []Capture `json:"captures"` // oldest first
}

// Profiler runs the capture loop. Close stops it; a nil *Profiler is
// inert, so daemons can wire it unconditionally and gate on a flag.
type Profiler struct {
	service string
	opts    Options

	mu     sync.Mutex
	caps   map[string][]Capture // kind -> ring, oldest first
	nextID int

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Kinds are the capture kinds each round produces.
var Kinds = []string{"cpu", "heap", "goroutine"}

// New starts the capture loop. An immediate heap+goroutine snapshot is
// taken synchronously so a scrape right after boot is never empty; the
// first CPU window starts with the first round.
func New(service string, opts Options) *Profiler {
	if opts.Every <= 0 {
		opts.Every = 60 * time.Second
	}
	if opts.CPUDuration <= 0 {
		opts.CPUDuration = 5 * time.Second
	}
	if opts.CPUDuration > opts.Every/2 {
		opts.CPUDuration = opts.Every / 2
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 16
	}
	p := &Profiler{
		service: service,
		opts:    opts,
		caps:    make(map[string][]Capture),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	p.snapshot("heap")
	p.snapshot("goroutine")
	go p.loop()
	return p
}

// Service returns the profiler's service label ("" on nil).
func (p *Profiler) Service() string {
	if p == nil {
		return ""
	}
	return p.service
}

// Close stops the loop and waits for an in-flight CPU window to finish.
// Idempotent; captures stay readable.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.opts.Every)
	defer t.Stop()
	for {
		// The CPU window runs at the top of each round; snapshots follow.
		if err := p.captureCPU(); err != nil && p.opts.OnError != nil {
			p.opts.OnError(err)
		}
		p.snapshot("heap")
		p.snapshot("goroutine")
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// captureCPU runs one CPU profiling window. StartCPUProfile fails when a
// profile is already running (an operator attached via /debug/pprof); the
// round is skipped rather than fought over.
func (p *Profiler) captureCPU() error {
	var buf bytes.Buffer
	start := time.Now()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("profiled: cpu window skipped: %w", err)
	}
	select {
	case <-p.stop:
	case <-time.After(p.opts.CPUDuration):
	}
	pprof.StopCPUProfile()
	p.store(Capture{
		Kind:     "cpu",
		StartUNS: start.UnixNano(),
		DurNS:    int64(time.Since(start)),
		bytes:    buf.Bytes(),
	})
	return nil
}

// snapshot stores one point-in-time profile of a runtime/pprof named
// profile ("heap", "goroutine").
func (p *Profiler) snapshot(kind string) {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		if p.opts.OnError != nil {
			p.opts.OnError(fmt.Errorf("profiled: %s snapshot: %w", kind, err))
		}
		return
	}
	p.store(Capture{Kind: kind, StartUNS: time.Now().UnixNano(), bytes: buf.Bytes()})
}

func (p *Profiler) store(c Capture) {
	p.mu.Lock()
	p.nextID++
	c.ID = p.nextID
	c.Size = len(c.bytes)
	ring := append(p.caps[c.Kind], c)
	if len(ring) > p.opts.Capacity {
		ring = ring[len(ring)-p.opts.Capacity:]
	}
	p.caps[c.Kind] = ring
	p.mu.Unlock()
}

// Captures lists stored captures of one kind (all kinds for ""), oldest
// first.
func (p *Profiler) Captures(kind string) []Capture {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Capture
	for _, k := range Kinds {
		if kind != "" && k != kind {
			continue
		}
		out = append(out, p.caps[k]...)
	}
	return out
}

// Get returns one capture by id.
func (p *Profiler) Get(id int) (Capture, bool) {
	if p == nil {
		return Capture{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ring := range p.caps { // mmtvet:ok — id lookup, order-free
		for _, c := range ring {
			if c.ID == id {
				return c, true
			}
		}
	}
	return Capture{}, false
}

// ServeHTTP serves the ring (GET /v1/debug/profiles):
//
//	?             JSON index of stored captures
//	?id=N         one capture's raw pprof bytes (feed to `go tool pprof`)
func (p *Profiler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if ids := q.Get("id"); ids != "" {
		id, err := strconv.Atoi(ids)
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		c, ok := p.Get(id)
		if !ok {
			http.Error(w, "no such capture (the ring is bounded; it may have aged out)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s-%d.pprof", c.Kind, c.ID))
		w.Write(c.bytes) //nolint:errcheck // client went away
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(IndexResponse{ //nolint:errcheck // client went away
		Service:  p.Service(),
		EveryMS:  p.opts.Every.Milliseconds(),
		Captures: p.Captures(q.Get("kind")),
	})
}
