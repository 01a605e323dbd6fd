package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of a public API. The layer is the name's first dot-separated word. A
// root span's Width is the number of tracks it stands for (pool workers or
// clients), so its self time is Width × duration minus its children's
// time. Derived spans take their duration from a result the program
// reported (a job status, an experiment's wall time) rather than from a
// clock around the call.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Label   string  `json:"label,omitempty"`
	Track   int     `json:"track"`
	Width   int     `json:"width,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Derived bool    `json:"derived,omitempty"`

	log   *spanLog
	start time.Time
}

// spanLog keeps a run's spans in memory until the run ends. Rigs add
// spans from several goroutines.
type spanLog struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
}

func (l *spanLog) add(s *span) *span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	s.log = l
	l.spans = append(l.spans, s)
	return s
}

// begin opens a span at start under parent (nil for a root).
func (l *spanLog) begin(parent *span, name string, track int, start time.Time) *span {
	s := &span{Name: name, Track: track, StartUS: us(start.Sub(l.epoch)), start: start}
	if parent != nil {
		s.Parent = parent.ID
	}
	return l.add(s)
}

// root opens a root span standing for width tracks.
func (l *spanLog) root(name string, width int, start time.Time) *span {
	s := l.begin(nil, name, 0, start)
	s.Width = width
	return s
}

// derived records a finished child whose duration the program reported.
func (l *spanLog) derived(parent *span, name, label string, track int, start time.Time, d time.Duration) *span {
	s := l.begin(parent, name, track, start)
	s.Label, s.Derived, s.DurUS = label, true, us(d)
	return s
}

// end closes the span now.
func (s *span) end() { s.endAt(time.Now()) }

func (s *span) endAt(t time.Time) { s.DurUS = us(t.Sub(s.start)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums each layer's self time in microseconds: a span's
// (width-weighted) duration minus its children's.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := l.childTimes()
	out := make(map[string]float64)
	for _, s := range l.spans {
		out[layerOf(s.Name)] += s.weighted() - child[s.ID]
	}
	return out
}

// coverage is the share of the root spans' (width-weighted) time that
// spans below them account for: 1 minus the roots' own self time, which
// is the benchmark's bookkeeping between calls and any time no span saw.
func (l *spanLog) coverage() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := l.childTimes()
	var total, self float64
	for _, s := range l.spans {
		if s.Parent == 0 {
			total += s.weighted()
			self += s.weighted() - child[s.ID]
		}
	}
	return 1 - ratio(self, total)
}

// childTimes sums the (width-weighted) durations of each span's children;
// the caller holds mu.
func (l *spanLog) childTimes() map[int]float64 {
	child := make(map[int]float64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.weighted()
		}
	}
	return child
}

func (s *span) weighted() float64 {
	if s.Width > 1 {
		return float64(s.Width) * s.DurUS
	}
	return s.DurUS
}

// writeJSONL writes every span as one JSON line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
