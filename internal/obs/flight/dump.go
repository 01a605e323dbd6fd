package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mmt/internal/obs/span"
)

// DumpSchema versions the on-disk dump format.
const DumpSchema = 1

// Dump is a flight ring and the span ring frozen at one instant: what
// the process's recent past looked like when it panicked, was SIGQUIT'd,
// or was scraped. Dropped counts the older entries both rings have
// overwritten.
type Dump struct {
	Schema   int     `json:"schema"`
	Service  string  `json:"service"`
	Reason   string  `json:"reason"`
	PID      int     `json:"pid,omitempty"`
	TakenUNS int64   `json:"taken_uns"`
	Dropped  uint64  `json:"dropped"`
	Entries  []Entry `json:"entries"`
}

// WriteDump snapshots the ring and writes it as indented JSON to path.
func (r *Recorder) WriteDump(path, reason string) error {
	d := r.Snapshot(reason)
	d.Schema = DumpSchema
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadDump loads a dump written by WriteDump.
func ReadDump(path string) (Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Dump{}, err
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return Dump{}, fmt.Errorf("decoding %s: %w", path, err)
	}
	if d.Schema != DumpSchema {
		return Dump{}, fmt.Errorf("%s: flight dump schema %d, this build reads %d", path, d.Schema, DumpSchema)
	}
	return d, nil
}

// DumpPath names a dump file for a service inside dir; ':' and '/' in the
// service label (addresses, URLs) are flattened so the name stays a single
// path element.
func DumpPath(dir, service string, pid int) string {
	s := strings.NewReplacer(":", "_", "/", "_", "\\", "_").Replace(service)
	if s == "" {
		s = "unknown"
	}
	return filepath.Join(dir, fmt.Sprintf("mmt-flight-%s-%d.json", s, pid))
}

// Render writes the dump as a human-readable table: one line per entry,
// oldest first, with the entry's wall-clock offset from the dump instant.
func (d Dump) Render(w io.Writer) {
	fmt.Fprintf(w, "flight dump: %s (reason: %s, pid %d, taken %s)\n",
		d.Service, d.Reason, d.PID, time.Unix(0, d.TakenUNS).UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(w, "%d entries, %d older entries overwritten\n\n", len(d.Entries), d.Dropped)
	fmt.Fprintf(w, "%10s %-9s %-40s %-24s %s\n", "age", "kind", "what", "trace", "detail")
	for _, e := range d.Entries {
		age := "?"
		if e.UNS > 0 && d.TakenUNS >= e.UNS {
			age = fmt.Sprintf("-%.3fs", float64(d.TakenUNS-e.UNS)/1e9)
		}
		fmt.Fprintf(w, "%10s %-9s %-40s %-24s %s\n",
			age, e.Kind, clip(e.Name, 40), clip(e.Trace, 24), e.detail())
	}
}

// detail is the entry's kind-specific suffix for the rendered table.
func (e Entry) detail() string {
	switch e.Kind {
	case KindSpan:
		return fmt.Sprintf("%.3fms", float64(e.Dur)/1e6) + span.FormatAttrs(e.Attrs)
	case KindLog:
		return "level=" + levelName(int(e.Arg)-8)
	case KindPanic:
		return "PANIC: " + e.Err
	default:
		return e.Err
	}
}

func levelName(l int) string {
	switch {
	case l < 0:
		return "debug"
	case l < 4:
		return "info"
	case l < 8:
		return "warn"
	default:
		return "error"
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// ServeHTTP serves the live ring as a dump document (GET /v1/debug/flight).
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	d := r.Snapshot("http")
	d.Schema = DumpSchema
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(d) //nolint:errcheck // client went away; nothing to do
}

// InstallSignalDump arranges for SIGQUIT to write the ring to a dump file
// under dir before the process exits with the conventional status 2 and a
// goroutine stack dump on stderr — the black-box lands on disk exactly
// when an operator (or orchestrator) kills a wedged node. Returns the path
// the dump will be written to, and the function that uninstalls the
// handler, so a finished run's ring is never dumped. Call stop once.
func InstallSignalDump(r *Recorder, dir string, logw io.Writer) (path string, stop func()) {
	path = DumpPath(dir, r.Service(), os.Getpid())
	c := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(c, syscall.SIGQUIT)
	go func() {
		select {
		case <-c:
		case <-done:
			return
		}
		if err := r.WriteDump(path, "SIGQUIT"); err == nil {
			if logw != nil {
				fmt.Fprintf(logw, "flight: SIGQUIT dump written to %s\n", path)
			}
		} else if logw != nil {
			fmt.Fprintf(logw, "flight: SIGQUIT dump failed: %v\n", err)
		}
		// Preserve the Go runtime's SIGQUIT contract: goroutine stacks on
		// stderr, exit status 2.
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		os.Stderr.Write(buf[:n]) //nolint:errcheck // best-effort, exiting
		os.Exit(2)
	}()
	return path, func() {
		signal.Stop(c)
		close(done)
	}
}
