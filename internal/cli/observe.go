package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/span"
)

// openTraceSinks builds the recorder behind mmtsim's -trace-out /
// -events-out flags: a Chrome trace-event file of the core's cycle-domain
// stream (opens in Perfetto or chrome://tracing), a JSONL event log, or
// both fanned out. The returned close function finalizes every sink and
// closes the files, reporting the first error — a truncated trace would
// otherwise silently fail to load in the viewer. Closing seals the
// recorder: a simulation the runner abandoned at -timeout or on a signal
// keeps emitting, and its late events are dropped.
func openTraceSinks(traceOut, eventsOut string, meta map[string]string) (obs.Recorder, func() error, error) {
	var (
		sinks []obs.Recorder
		files []*os.File
	)
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			for _, g := range files {
				g.Close()
			}
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	if traceOut != "" {
		f, err := open(traceOut)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, obs.NewChromeTrace(f, obs.ChromeTraceConfig{
			Process: "mmtsim", TrackPrefix: "thread", Meta: meta,
		}))
	}
	if eventsOut != "" {
		f, err := open(eventsOut)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, obs.NewJSONL(f, meta))
	}
	rec := &sealedRecorder{rec: obs.Multi(sinks...)}
	closeAll := func() error {
		err := rec.Close()
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", f.Name(), cerr)
			}
		}
		return err
	}
	return rec, closeAll, nil
}

// sealedRecorder serializes a recorder's calls and drops those that
// arrive after Close. It wraps timeline sinks only, so it drops the
// attribution kinds before taking its lock.
type sealedRecorder struct {
	mu  sync.Mutex
	rec obs.Recorder // nil once closed
}

func (s *sealedRecorder) Event(e obs.Event) {
	if !e.Kind.Timeline() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec != nil {
		s.rec.Event(e)
	}
}

func (s *sealedRecorder) Sample(m obs.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec != nil {
		s.rec.Sample(m)
	}
}

func (s *sealedRecorder) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rec
	s.rec = nil
	return rec.Close()
}

// jobTrace is the runner's -trace-out file (mmtbench, mmtserved): every
// finished job execution span streams into a Chrome trace-event file on
// its worker's track, through the same mapping as mmttrace -chrome.
// Streaming keeps a long run whole where the span and flight rings would
// overwrite its start. A nil *jobTrace records nothing.
type jobTrace struct {
	f    *os.File
	sink *obs.ChromeTraceSink
	base int64 // unix ns the file's timestamps count from
}

// openJobTrace creates the -trace-out file; "" returns a nil trace.
func openJobTrace(path, process string, meta map[string]string) (*jobTrace, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &jobTrace{
		f:    f,
		sink: obs.NewChromeTrace(f, obs.ChromeTraceConfig{Process: process, TrackPrefix: "worker", Meta: meta}),
		base: time.Now().UnixNano(),
	}, nil
}

// observe renders one finished span if it is a job execution — the
// runner labels those with their worker — and skips every other span.
func (t *jobTrace) observe(r span.Record) {
	if t == nil {
		return
	}
	if w, err := strconv.Atoi(r.Attrs["worker"]); err == nil {
		chromeSpan(t.sink, int32(w), t.base, r)
	}
}

// Close finalizes the JSON document and closes the file, reporting the
// first error.
func (t *jobTrace) Close() error {
	if t == nil {
		return nil
	}
	err := t.sink.Close()
	if cerr := t.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing %s: %w", t.f.Name(), cerr)
	}
	return err
}

// serveMetrics starts the -metrics-addr listener and announces it on the
// progress stream (never stdout, which stays reserved for results). An
// empty addr serves nothing. The returned function closes the listener.
func serveMetrics(addr string, reg *obs.Registry, progress io.Writer) (func() error, error) {
	if addr == "" {
		return func() error { return nil }, nil
	}
	srv, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "serving metrics on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof)\n", srv.Addr())
	}
	return srv.Close, nil
}
