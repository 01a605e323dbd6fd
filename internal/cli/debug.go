package cli

import (
	"flag"
	"io"
	"os"

	"mmt/internal/obs/flight"
	"mmt/internal/obs/span"
)

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
