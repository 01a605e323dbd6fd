package cli

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"mmt/internal/runner"
)

// flags is one command's flag set, with the -version flag every command
// answers the same way.
type flags struct {
	*flag.FlagSet
	version *bool
}

// newFlags returns the flag set of the command name. Usage, flag errors
// and the -version line go to out.
func newFlags(name string, out io.Writer) *flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	return &flags{FlagSet: fs, version: fs.Bool("version", false, "print version and exit")}
}

// parse parses args. done reports that the command has nothing left to
// do: -version printed its line.
func (f *flags) parse(args []string) (done bool, err error) {
	if err := f.Parse(args); err != nil {
		return false, err
	}
	if *f.version {
		fmt.Fprintf(f.Output(), "%s %s %s\n", f.Name(), Version(), runtime.Version())
	}
	return *f.version, nil
}

// runnerFlags is the worker-pool flag group mmtbench and mmtserved share.
type runnerFlags struct {
	jobs     *int
	cacheDir *string
	timeout  *time.Duration
	retries  *int
}

// addRunnerFlags registers -j, -cache-dir, -timeout and -retries on fs.
func addRunnerFlags(fs *flag.FlagSet) runnerFlags {
	return runnerFlags{
		jobs:     fs.Int("j", runtime.NumCPU(), "parallel simulation workers"),
		cacheDir: fs.String("cache-dir", "", "persistent result cache directory (empty = disabled)"),
		timeout:  fs.Duration("timeout", 0, "per-simulation wall-clock timeout (0 = none)"),
		retries:  fs.Int("retries", 1, "extra attempts for a failed simulation"),
	}
}

// options validates the group into the pool's options, reporting
// progress to progress.
func (r runnerFlags) options(progress io.Writer) (runner.Options, error) {
	if err := validateTimeout(*r.timeout); err != nil {
		return runner.Options{}, err
	}
	if err := validateRetries(*r.retries); err != nil {
		return runner.Options{}, err
	}
	return runner.Options{Workers: *r.jobs, CacheDir: *r.cacheDir, Timeout: *r.timeout,
		Retries: *r.retries, Progress: progress}, nil
}

// The underlying layers tolerate some nonsense values in surprising ways
// (a negative -timeout times every job out instantly), so the commands
// reject them up front with a clear message instead.

// validateTimeout rejects negative wall-clock timeouts (0 disables).
func validateTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-timeout must be >= 0 (0 disables the timeout), got %s", d)
	}
	return nil
}

// validateRetries rejects negative retry budgets (0 means no retries).
func validateRetries(n int) error {
	if n < 0 {
		return fmt.Errorf("-retries must be >= 0 (0 disables retries), got %d", n)
	}
	return nil
}
