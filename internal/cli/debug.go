package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"mmt/internal/obs"
	"mmt/internal/obs/flight"
	"mmt/internal/obs/history"
	"mmt/internal/obs/profiled"
	"mmt/internal/obs/span"
)

// debugOptions carries the flags every daemon shares for the always-on
// diagnostics surface: the flight recorder ring, the continuous profiler
// and the in-process metrics history behind GET /v1/debug/.
type debugOptions struct {
	flight       flightOptions
	profileEvery *time.Duration
	profileCPU   *time.Duration
	historyEvery *time.Duration
}

// addDebugFlags registers the -flight-*, -profile-* and -history-* flags.
func addDebugFlags(fs *flag.FlagSet) debugOptions {
	return debugOptions{
		flight:       addFlightFlags(fs),
		profileEvery: fs.Duration("profile-every", time.Minute, "continuous profiler round cadence (0 = disabled)"),
		profileCPU:   fs.Duration("profile-cpu", 5*time.Second, "CPU window per profiler round (clamped to half the cadence)"),
		historyEvery: fs.Duration("history-every", 5*time.Second, "metrics history sampling cadence"),
	}
}

// flightOptions carries the flight-recorder flag shared by the batch
// tools (mmtsim, mmtbench) and the daemons: where the black box's
// SIGQUIT/panic dumps land.
type flightOptions struct {
	dumpDir *string
}

// addFlightFlags registers -flight-dump-dir on fs.
func addFlightFlags(fs *flag.FlagSet) flightOptions {
	return flightOptions{
		dumpDir: fs.String("flight-dump-dir", os.TempDir(), "where SIGQUIT/panic flight dumps land (empty = no dumps; the ring stays live)"),
	}
}

// build creates the ring, whose dumps carry the tracer's spans, marks the
// process start and installs the SIGQUIT dump handler. It returns the
// ring, where a SIGQUIT dump will land ("" when dumps are off) and the
// function that uninstalls the handler.
func (o flightOptions) build(service string, tracer *span.Tracer, progress io.Writer) (*flight.Recorder, string, func()) {
	fl := flight.New(service, flight.DefaultCapacity, tracer)
	fl.Mark("process start: " + service)
	if *o.dumpDir == "" {
		return fl, "", func() {}
	}
	path, stop := flight.InstallSignalDump(fl, *o.dumpDir, progress)
	return fl, path, stop
}

// debugStack is the assembled diagnostics surface for one daemon.
type debugStack struct {
	Flight   *flight.Recorder
	Profiler *profiled.Profiler
	History  *history.Sampler
	Handler  http.Handler // the GET /v1/debug/ mux (flight, profiles, metrics, config)
	DumpPath string       // where a SIGQUIT dump will land ("" when dumps are off)
	stopDump func()       // uninstalls the SIGQUIT dump handler
}

// build assembles the stack for a daemon: the flight ring (always on, its
// dumps carrying the tracer's spans), the profiler and metrics-history
// samplers (flag-gated), the SIGQUIT dump handler, and the /v1/debug/
// mux. service is the fleet-visible label ("mmtserved@host:port"); fs is
// the parsed flag set, rendered at GET /v1/debug/config so a bundle
// records the node's exact configuration.
func (o debugOptions) build(service string, fs *flag.FlagSet, reg *obs.Registry, tracer *span.Tracer, logger *slog.Logger, progress io.Writer) *debugStack {
	st := &debugStack{}
	st.Flight, st.DumpPath, st.stopDump = o.flight.build(service, tracer, progress)
	if *o.profileEvery > 0 {
		st.Profiler = profiled.New(service, profiled.Options{
			Every:       *o.profileEvery,
			CPUDuration: *o.profileCPU,
			OnError: func(err error) {
				if logger != nil {
					logger.Warn("profiler capture failed", "error", err.Error())
				}
			},
		})
	}
	if reg != nil {
		st.History = history.New(service, reg, *o.historyEvery, 0)
	}

	mux := http.NewServeMux()
	mux.Handle("GET /v1/debug/flight", st.Flight)
	if st.Profiler != nil {
		mux.Handle("GET /v1/debug/profiles", st.Profiler)
	}
	if st.History != nil {
		mux.Handle("GET /v1/debug/metrics", st.History)
	}
	mux.HandleFunc("GET /v1/debug/config", configHandler(service, fs))
	mux.HandleFunc("GET /v1/debug/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown debug endpoint (have: flight, profiles, metrics, config)", http.StatusNotFound)
	})
	st.Handler = mux
	return st
}

// Wrap layers the flight ring under a slog handler so recent log lines
// ride along in dumps, preserving the logger's format and level floor.
func (st *debugStack) Wrap(logger *slog.Logger) *slog.Logger {
	return slog.New(flight.NewLogHandler(logger.Handler(), st.Flight))
}

// Close stops the samplers and uninstalls the SIGQUIT dump handler. The
// flight ring needs no teardown.
func (st *debugStack) Close() {
	st.Profiler.Close()
	st.History.Close()
	st.stopDump()
}

// ConfigDoc is the GET /v1/debug/config body: the daemon's resolved flag
// values, so a diagnosis bundle reproduces the node's exact configuration.
type ConfigDoc struct {
	Service string            `json:"service"`
	Version string            `json:"version"`
	PID     int               `json:"pid"`
	Flags   map[string]string `json:"flags"`
}

func configHandler(service string, fs *flag.FlagSet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc := ConfigDoc{
			Service: service,
			Version: Version(),
			PID:     os.Getpid(),
			Flags:   map[string]string{},
		}
		if fs != nil {
			fs.VisitAll(func(f *flag.Flag) {
				doc.Flags[f.Name] = f.Value.String()
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(doc) //nolint:errcheck // client went away
	}
}

// announce prints the diagnostics surface once at daemon startup.
func (st *debugStack) announce(progress io.Writer, addr string) {
	if progress == nil {
		return
	}
	profiling := "off"
	if st.Profiler != nil {
		profiling = "on"
	}
	dump := "off"
	if st.DumpPath != "" {
		dump = st.DumpPath
	}
	fmt.Fprintf(progress, "diagnostics on http://%s/v1/debug/ (flight ring, profiler %s, SIGQUIT dump %s)\n",
		addr, profiling, dump)
}
