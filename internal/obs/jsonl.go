package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Line is one JSONL record: exactly one of Meta, Event or Sample is set,
// tagged by Type ("meta", "event", "sample").
type Line struct {
	Type   string            `json:"type"`
	Meta   map[string]string `json:"meta,omitempty"`
	Event  *Event            `json:"event,omitempty"`
	Sample *Sample           `json:"sample,omitempty"`
}

// JSONLSink streams the event stream as one JSON object per line. It is
// safe for concurrent use.
type JSONLSink struct {
	mu  sync.Mutex
	ew  *errWriter
	buf *bufio.Writer
	enc *json.Encoder
}

// NewJSONL returns a sink writing to w. meta, when non-nil, is written as
// the first line, so logs carry the producing build and run identity. The
// caller owns w; Close flushes but does not close it.
func NewJSONL(w io.Writer, meta map[string]string) *JSONLSink {
	ew := &errWriter{w: w}
	buf := bufio.NewWriter(ew)
	s := &JSONLSink{ew: ew, buf: buf, enc: json.NewEncoder(buf)}
	if meta != nil {
		s.enc.Encode(Line{Type: "meta", Meta: meta}) //nolint:errcheck // surfaced at Close via errWriter
	}
	return s
}

// Event writes one event line; attribution kinds are dropped.
func (s *JSONLSink) Event(e Event) {
	if !e.Kind.Timeline() {
		return
	}
	s.mu.Lock()
	s.enc.Encode(Line{Type: "event", Event: &e}) //nolint:errcheck
	s.mu.Unlock()
}

// Sample writes one sample line.
func (s *JSONLSink) Sample(sm Sample) {
	s.mu.Lock()
	s.enc.Encode(Line{Type: "sample", Sample: &sm}) //nolint:errcheck
	s.mu.Unlock()
}

// Close flushes the buffer and reports the first write error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buf.Flush(); err != nil {
		return err
	}
	return s.ew.err
}

// DecodeJSONL reads back a log written by JSONLSink. It returns the
// records in order and fails on the first malformed line.
func DecodeJSONL(r io.Reader) ([]Line, error) {
	dec := json.NewDecoder(r)
	var out []Line
	for {
		var l Line
		if err := dec.Decode(&l); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: jsonl line %d: %w", len(out)+1, err)
		}
		out = append(out, l)
	}
}
