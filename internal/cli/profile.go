package cli

import (
	"fmt"
	"io"
	"os"

	"mmt/internal/prof"
	"mmt/internal/sim"
	"mmt/internal/workloads"
)

// RunProfile is the mmtprofile command. Without -from-run it computes the
// §3 motivation study (Fig. 1 and Fig. 2) from aligned functional traces;
// with -from-run it renders (or, with -diff, compares) per-PC attribution
// profiles written by mmtsim/mmtbench/mmtload -profile-out.
func RunProfile(args []string, out io.Writer) error {
	fs := newFlags("mmtprofile", out)
	var (
		appName  = fs.String("app", "", "profile a single application (default: all)")
		maxInsts = fs.Int("maxinsts", 1_000_000, "per-context dynamic instruction cap")
		fromRun  = fs.String("from-run", "", "render an attribution profile: a -profile-out JSON file or a -out outcome file with an embedded profile")
		diffWith = fs.String("diff", "", "with -from-run: second profile to diff against (-from-run = before, -diff = after)")
		topN     = fs.Int("top", 10, "sites in the attribution report (0 = all)")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if *diffWith != "" && *fromRun == "" {
		return fmt.Errorf("-diff requires -from-run")
	}
	if *fromRun != "" {
		before, err := loadProfileFile(*fromRun)
		if err != nil {
			return err
		}
		if *diffWith == "" {
			return prof.WriteReport(out, before, *topN)
		}
		after, err := loadProfileFile(*diffWith)
		if err != nil {
			return err
		}
		return prof.WriteDiff(out, before, after, *topN)
	}

	apps := workloads.All()
	if *appName != "" {
		a, ok := workloads.ByName(*appName)
		if !ok {
			return fmt.Errorf("unknown application %q", *appName)
		}
		apps = []workloads.App{a}
	}

	ex := sim.NewSerial()
	rows1, err := sim.Figure1(ex, apps, *maxInsts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, sim.FormatFig1(rows1))

	rows2, err := sim.Figure2(ex, apps, *maxInsts)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, sim.FormatFig2(rows2))
	return nil
}

// writeProfile writes p behind -profile-out, then prints its top-N
// report after a blank line.
func writeProfile(out io.Writer, path string, p *prof.Profile, topN int) error {
	b, err := p.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out)
	return prof.WriteReport(out, p, topN)
}

// loadProfileFile reads an attribution profile from either encoding: a
// bare profile JSON (-profile-out) or a canonical outcome (-out /
// serve outcome blob) carrying an embedded profile.
func loadProfileFile(path string) (*prof.Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if p, perr := prof.ParseProfile(b); perr == nil {
		return p, nil
	}
	o, oerr := sim.UnmarshalOutcome(b)
	if oerr != nil {
		return nil, fmt.Errorf("%s is neither a profile nor an outcome: %v", path, oerr)
	}
	if o.Attribution == nil {
		return nil, fmt.Errorf("%s: outcome has no attribution profile (rerun with -profile-out or task attribution)", path)
	}
	if err := o.Attribution.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return o.Attribution, nil
}
