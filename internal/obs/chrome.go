package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ChromeTraceConfig configures the trace-event exporter.
type ChromeTraceConfig struct {
	// Process is the process_name shown in the viewer (e.g. "mmtsim core",
	// "mmtbench runner").
	Process string
	// TrackPrefix names per-track rows: "<prefix> <n>" ("thread 0",
	// "worker 3"). Default "track".
	TrackPrefix string
	// Meta is attached as the file's otherData: build version, app,
	// preset — whatever makes the trace attributable.
	Meta map[string]string
}

// ChromeTraceSink streams Chrome trace-event JSON (the "JSON Object
// Format"), so a run opens directly in Perfetto or chrome://tracing. As a
// Recorder it renders the core's stream: one track per hardware thread, a
// machine track for global events, and counter tracks for the fetch-mode
// mix and the sampled occupancies, with cycles mapped 1:1 onto the
// format's µs field. Span appends wall-clock spans instead (mmttrace, the
// runner's -trace-out). It is safe for concurrent use.
type ChromeTraceSink struct {
	cfg ChromeTraceConfig

	mu     sync.Mutex
	ew     *errWriter
	buf    *bufio.Writer
	first  bool
	closed bool
	tracks map[int32]bool
	prev   *Sample // previous sample, for interval rates
}

// chromeRecord is one element of the traceEvents array.
type chromeRecord struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewChromeTrace returns a sink writing to w. The caller owns w; Close
// finalizes the JSON document and flushes but does not close it.
func NewChromeTrace(w io.Writer, cfg ChromeTraceConfig) *ChromeTraceSink {
	if cfg.Process == "" {
		cfg.Process = "mmt"
	}
	if cfg.TrackPrefix == "" {
		cfg.TrackPrefix = "track"
	}
	ew := &errWriter{w: w}
	s := &ChromeTraceSink{
		cfg:    cfg,
		ew:     ew,
		buf:    bufio.NewWriter(ew),
		first:  true,
		tracks: make(map[int32]bool),
	}
	s.buf.WriteString("{\"traceEvents\":[") //nolint:errcheck // surfaced at Close via errWriter
	s.record(chromeRecord{Name: "process_name", Phase: "M",
		Args: map[string]any{"name": cfg.Process}})
	return s
}

// tid maps a producer track onto a viewer thread id: the machine track is
// tid 0, hardware thread / worker n is tid n+1.
func tid(track int32) int64 {
	if track == TrackMachine {
		return 0
	}
	return int64(track) + 1
}

// record appends one element to the traceEvents array (s.mu held, except
// from the constructor).
func (s *ChromeTraceSink) record(r chromeRecord) {
	if s.first {
		s.first = false
	} else {
		s.buf.WriteByte(',') //nolint:errcheck
	}
	b, err := json.Marshal(r)
	if err != nil {
		// chromeRecord marshals unconditionally; args hold only scalars.
		panic(fmt.Sprintf("obs: marshaling trace record: %v", err))
	}
	s.buf.Write(b) //nolint:errcheck
}

// ensureTrack emits the thread_name metadata for a track on first use.
func (s *ChromeTraceSink) ensureTrack(track int32) {
	if s.tracks[track] {
		return
	}
	s.tracks[track] = true
	name := "machine"
	if track != TrackMachine {
		name = fmt.Sprintf("%s %d", s.cfg.TrackPrefix, track)
	}
	s.record(chromeRecord{Name: "thread_name", Phase: "M", TID: tid(track),
		Args: map[string]any{"name": name}})
	s.record(chromeRecord{Name: "thread_sort_index", Phase: "M", TID: tid(track),
		Args: map[string]any{"sort_index": tid(track)}})
}

// NameTrack assigns an explicit viewer name to a track, overriding the
// "<prefix> <n>" default — mmttrace uses one named track per fleet
// process. Calls after the track's first event (or Close) are dropped.
func (s *ChromeTraceSink) NameTrack(track int32, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.tracks[track] {
		return
	}
	s.tracks[track] = true
	s.record(chromeRecord{Name: "thread_name", Phase: "M", TID: tid(track),
		Args: map[string]any{"name": name}})
	s.record(chromeRecord{Name: "thread_sort_index", Phase: "M", TID: tid(track),
		Args: map[string]any{"sort_index": tid(track)}})
}

// Span appends an arbitrary named complete event to a track — finished
// span records render through this (see internal/cli's chromeSpan). ts
// and dur are in the file's µs domain.
func (s *ChromeTraceSink) Span(track int32, name string, ts, dur uint64, args map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.ensureTrack(track)
	s.record(chromeRecord{Name: name, Phase: "X", TS: ts, Dur: dur,
		TID: tid(track), Args: args})
}

// Event renders one event: a counter for EvFetchMode, a thread-scoped
// instant otherwise. Attribution kinds are dropped.
func (s *ChromeTraceSink) Event(e Event) {
	if !e.Kind.Timeline() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if e.Kind == EvFetchMode {
		m, d, c := UnpackModeMix(e.Arg)
		s.record(chromeRecord{Name: "fetch groups", Phase: "C", TS: e.TS,
			Args: map[string]any{"merge": m, "detect": d, "catchup": c}})
		return
	}
	s.ensureTrack(e.Track)
	name := e.Kind.String()
	if e.Kind == EvStall {
		name = "stall: " + StallCause(e.Arg).String()
	}
	s.record(chromeRecord{Name: name, Phase: "i", TS: e.TS,
		TID: tid(e.Track), Scope: "t", Args: eventArgs(e)})
}

// eventArgs builds the args payload shown in the viewer's detail pane.
func eventArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.PC != 0 {
		args["pc"] = fmt.Sprintf("%#x", e.PC)
	}
	if e.Arg != 0 && e.Kind != EvStall {
		args["arg"] = e.Arg
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// Sample renders occupancy and rate counter tracks from one cycle sample.
func (s *ChromeTraceSink) Sample(sm Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.record(chromeRecord{Name: "occupancy", Phase: "C", TS: sm.TS,
		Args: map[string]any{"fetchq": sm.FetchQ, "rob": sm.ROB, "iq": sm.IQ, "lsq": sm.LSQ}})
	s.record(chromeRecord{Name: "fetch groups", Phase: "C", TS: sm.TS,
		Args: map[string]any{"merge": sm.GroupsMerge, "detect": sm.GroupsDetect, "catchup": sm.GroupsCatchup}})
	if s.prev != nil && sm.TS > s.prev.TS {
		dt := float64(sm.TS - s.prev.TS)
		s.record(chromeRecord{Name: "ipc", Phase: "C", TS: sm.TS,
			Args: map[string]any{"ipc": float64(sm.Committed-s.prev.Committed) / dt}})
		s.record(chromeRecord{Name: "fetched per mode (interval)", Phase: "C", TS: sm.TS,
			Args: map[string]any{
				"merge":   sm.FetchedMerge - s.prev.FetchedMerge,
				"detect":  sm.FetchedDetect - s.prev.FetchedDetect,
				"catchup": sm.FetchedCatchup - s.prev.FetchedCatchup,
			}})
	}
	prev := sm
	s.prev = &prev
}

// Close finalizes the JSON document (closing the traceEvents array and
// attaching otherData) and reports the first write error. Further Event
// and Sample calls after Close are dropped.
func (s *ChromeTraceSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.ew.err
	}
	s.closed = true
	s.buf.WriteString("],\"displayTimeUnit\":\"ms\"") //nolint:errcheck
	if len(s.cfg.Meta) > 0 {
		b, err := json.Marshal(s.cfg.Meta)
		if err == nil {
			s.buf.WriteString(",\"otherData\":") //nolint:errcheck
			s.buf.Write(b)                       //nolint:errcheck
		}
	}
	s.buf.WriteByte('}') //nolint:errcheck
	if err := s.buf.Flush(); err != nil {
		return err
	}
	return s.ew.err
}
