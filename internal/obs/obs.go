// Package obs is the simulator core's observability layer: typed discrete
// events (divergences, remerges, catchup episodes, rollbacks, ...) and
// periodic samples of machine occupancy, all timestamped in cycles, plus a
// small metrics registry with a Prometheus-style text endpoint. Wall-clock
// job timelines live in internal/obs/span.
//
// Producers hold a Recorder and guard every emission with a nil check, so
// a run with observability disabled pays one pointer compare per site and
// allocates nothing. Three sinks ship with the package: a JSONL event log
// (JSONLSink), a Chrome trace-event exporter that opens directly in
// Perfetto or chrome://tracing (ChromeTraceSink), and the live /metrics
// endpoint (Registry + Serve).
package obs

import (
	"fmt"
	"io"
)

// EventKind classifies a discrete event of the simulator core.
type EventKind uint8

const (
	// EvDiverge: a fetch group split at a divergent control instruction.
	// PC is the branch; Arg is the number of resulting subgroups.
	EvDiverge EventKind = iota
	// EvRemerge: two fetch groups unified. PC is the common fetch PC
	// (0 when unknown); Arg is the merged group's member count.
	EvRemerge
	// EvCatchupStart: DETECT found a remerge point; a behind group began
	// catching up. PC is the matched taken-branch target.
	EvCatchupStart
	// EvCatchupAbort: a CATCHUP episode was abandoned (FHB false positive
	// or instruction-budget overrun). Arg is instructions fetched while
	// catching up.
	EvCatchupAbort
	// EvRollback: an LVIP (or shared-load) value mispredict rolled the
	// affected threads back. PC is the load; Arg is the thread count.
	EvRollback
	// EvSquash: uops were squashed by a rollback. Arg is the uop count.
	EvSquash
	// EvMispredict: a branch left the front end's followed path. PC is
	// the control instruction.
	EvMispredict
	// EvFetchMode: the live-group fetch-mode mix changed. Arg packs the
	// per-mode group counts (PackModeMix/UnpackModeMix).
	EvFetchMode
	// EvStall: the dominant backpressure cause changed. Arg is a
	// StallCause.
	EvStall

	// The attribution kinds below feed per-PC and per-cycle accounting
	// (internal/prof) rather than timelines; Timeline reports false for
	// them.

	// EvCommit: one uop at PC committed. Arg is its core.CommitClass.
	EvCommit
	// EvLVIPHit: a merged load at PC verified value-identical.
	EvLVIPHit
	// EvCycle: one core cycle ended. Arg is the core.CycleComponent it
	// is charged to.
	EvCycle
	// EvCatchupCycle: a behind group spent this cycle catching up. PC is
	// the divergence site that created the group (0 when unknown).
	EvCatchupCycle

	numEventKinds // internal bound for validation
)

var eventKindNames = [numEventKinds]string{
	EvDiverge:      "diverge",
	EvRemerge:      "remerge",
	EvCatchupStart: "catchup-start",
	EvCatchupAbort: "catchup-abort",
	EvRollback:     "rollback",
	EvSquash:       "squash",
	EvMispredict:   "mispredict",
	EvFetchMode:    "fetch-mode",
	EvStall:        "stall",
	EvCommit:       "commit",
	EvLVIPHit:      "lvip-hit",
	EvCycle:        "cycle",
	EvCatchupCycle: "catchup-cycle",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Timeline reports whether the kind belongs on a timeline: the JSONL and
// Chrome sinks drop the attribution kinds, which arrive per commit and
// per cycle.
func (k EventKind) Timeline() bool { return k < EvCommit }

// MarshalText renders the kind as its stable name, so JSONL logs stay
// grep-able and survive kind renumbering.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name written by MarshalText.
func (k *EventKind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range eventKindNames {
		if n == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// TrackMachine is the Track value for machine-wide events not attributable
// to one hardware thread.
const TrackMachine int32 = -1

// Event is one discrete occurrence at cycle TS. Track identifies the
// hardware thread (TrackMachine for machine-wide events). Site and Cost
// carry what attribution needs beyond PC and Arg: an EvRemerge's
// divergence site and its distance in taken branches, or an EvRollback's
// redirect penalty in cycles.
type Event struct {
	TS    uint64    `json:"ts"`
	Kind  EventKind `json:"kind"`
	Track int32     `json:"track"`
	PC    uint64    `json:"pc,omitempty"`
	Arg   uint64    `json:"arg,omitempty"`
	Site  uint64    `json:"site,omitempty"`
	Cost  uint64    `json:"cost,omitempty"`
}

// Sample is a periodic snapshot of the simulated machine, taken every
// -sample-every cycles. Committed and the Fetched* counters are cumulative;
// consumers diff successive samples for interval rates (IPC, fetch-mode
// mix per interval).
type Sample struct {
	TS        uint64 `json:"ts"`
	Committed uint64 `json:"committed"`

	// Structure occupancies at sample time.
	FetchQ int `json:"fetchq"`
	ROB    int `json:"rob"`
	IQ     int `json:"iq"`
	LSQ    int `json:"lsq"`

	// Live fetch groups by mode at sample time.
	GroupsMerge   int `json:"groups_merge"`
	GroupsDetect  int `json:"groups_detect"`
	GroupsCatchup int `json:"groups_catchup"`

	// Cumulative per-thread instructions fetched by mode.
	FetchedMerge   uint64 `json:"fetched_merge"`
	FetchedDetect  uint64 `json:"fetched_detect"`
	FetchedCatchup uint64 `json:"fetched_catchup"`
}

// Recorder receives the event stream of one simulator core, which calls
// it from a single goroutine. Producers keep a nil Recorder when
// observability is off and skip every call.
type Recorder interface {
	Event(e Event)
	Sample(s Sample)
	// Close flushes and finalizes the sink. The producer that opened the
	// sink closes it; recorders shared between producers are closed once
	// by their owner.
	Close() error
}

// StallCause identifies the structure whose backpressure stalled the
// front end (EvStall's Arg).
type StallCause uint8

const (
	StallNone StallCause = iota
	StallFetchQ
	StallROB
	StallIQ
	StallLSQ
)

func (s StallCause) String() string {
	switch s {
	case StallNone:
		return "none"
	case StallFetchQ:
		return "fetchq-full"
	case StallROB:
		return "rob-full"
	case StallIQ:
		return "iq-full"
	case StallLSQ:
		return "lsq-full"
	}
	return "?"
}

// PackModeMix folds per-mode live-group counts into an EvFetchMode Arg.
func PackModeMix(merge, detect, catchup int) uint64 {
	return uint64(uint16(merge)) | uint64(uint16(detect))<<16 | uint64(uint16(catchup))<<32
}

// UnpackModeMix inverts PackModeMix.
func UnpackModeMix(arg uint64) (merge, detect, catchup int) {
	return int(uint16(arg)), int(uint16(arg >> 16)), int(uint16(arg >> 32))
}

// Multi fans the stream out to several sinks, skipping nil ones; it
// returns nil when none is left. Close closes each sink and returns the
// first error.
func Multi(sinks ...Recorder) Recorder {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiSink []Recorder

func (m multiSink) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

func (m multiSink) Sample(s Sample) {
	for _, r := range m {
		r.Sample(s)
	}
}

func (m multiSink) Close() error {
	var first error
	for _, s := range m {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Collector is an in-memory Recorder for single-threaded producers (the
// pipeline tracer, tests): it accumulates events and samples for the
// caller to drain. It is not safe for concurrent use.
type Collector struct {
	Events  []Event
	Samples []Sample
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Event appends to the event buffer.
func (c *Collector) Event(e Event) { c.Events = append(c.Events, e) }

// Sample appends to the sample buffer.
func (c *Collector) Sample(s Sample) { c.Samples = append(c.Samples, s) }

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Drain returns the buffered events and resets the buffer, reusing its
// backing array.
func (c *Collector) Drain() []Event {
	out := c.Events
	c.Events = c.Events[len(c.Events):]
	return out
}

// errWriter tracks write errors so streaming sinks can surface the
// first failure at Close instead of silently truncating.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}
