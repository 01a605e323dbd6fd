package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mmt/internal/asm"
	"mmt/internal/prof"
	"mmt/internal/prog"
	"mmt/internal/sim"
	"mmt/internal/static"
	"mmt/internal/static/absint"
	"mmt/internal/workloads"
)

// CheckResult is the JSON form of one program's pre-flight check: the
// static findings (structural lints plus the abstract-interpretation
// lints), the optional static-vs-dynamic cross-validation, the
// redundancy report, and the optional cost-model estimate.
type CheckResult struct {
	Program  string           `json:"program"`
	Findings []static.Finding `json:"findings"`
	CrossVal []static.Finding `json:"cross_validation,omitempty"`
	Report   *static.Report   `json:"report"`
	Estimate *absint.Estimate `json:"estimate,omitempty"`
	// Correlation is the predicted-vs-observed merged-fraction rank
	// correlation of the -against-profile join (absent without one).
	Correlation *absint.CrossValidation `json:"correlation,omitempty"`
}

// RunCheck is the mmtcheck command: the static pre-flight linter over
// assembled programs, with optional cross-validation against a dynamic
// attribution profile.
func RunCheck(args []string, out io.Writer) error {
	fs := newFlags("mmtcheck", out)
	var (
		appName  = fs.String("app", "", "check one application (see mmtsim -list)")
		all      = fs.Bool("all", false, "check every registered workload program")
		srcFile  = fs.String("src", "", "check an assembly source file instead of a registered workload")
		equ      = fs.String("equ", "", "override kernel constants, e.g. MOVES=500,TSIZE=256 (with -app)")
		format   = fs.String("format", "text", "output format: text or json")
		failOn   = fs.String("fail-on", "warning", "exit non-zero at this severity or above: info, warning, error (never = always succeed)")
		against  = fs.String("against-profile", "", "cross-validate against an attribution profile JSON (from mmtsim -profile-out)")
		minCorr  = fs.Float64("min-correlation", 0, "with -against-profile: fail when the predicted-vs-observed merged-fraction Spearman falls below this")
		estimate = fs.Bool("estimate", false, "print the static cost-model estimate (redundancy, LVIP potential, divergence sites)")
		report   = fs.Bool("report", true, "include the static redundancy report (text format)")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want text or json)", *format)
	}
	var failSev static.Severity
	failNever := *failOn == "never"
	if !failNever {
		var err error
		if failSev, err = static.ParseSeverity(*failOn); err != nil {
			return err
		}
	}

	// Resolve the programs to check.
	type target struct {
		name string
		prog *prog.Program
		// app is set for registered workloads; the abstract interpreter
		// then uses the mode-aware options (MT stack striding, ME/MP
		// varying-input discovery).
		app *workloads.App
	}
	var targets []target
	switch {
	case *srcFile != "":
		if *appName != "" || *all {
			return fmt.Errorf("-src excludes -app and -all")
		}
		src, err := os.ReadFile(*srcFile)
		if err != nil {
			return err
		}
		p, err := asm.Assemble(*srcFile, string(src))
		if err != nil {
			return fmt.Errorf("assembling %s: %w", *srcFile, err)
		}
		targets = append(targets, target{*srcFile, p, nil})
	case *all:
		if *appName != "" {
			return fmt.Errorf("-all excludes -app")
		}
		for _, a := range append(workloads.All(), workloads.MP()...) {
			a := a
			p, err := asm.Assemble(a.Name, a.Source)
			if err != nil {
				return fmt.Errorf("assembling %s: %w", a.Name, err)
			}
			targets = append(targets, target{a.Name, p, &a})
		}
	case *appName != "":
		overrides, err := parseEqu(*equ)
		if err != nil {
			return err
		}
		a, err := sim.TaskSpec{App: *appName, Equ: overrides}.Workload()
		if err != nil {
			return err
		}
		p, err := asm.Assemble(a.Name, a.Source)
		if err != nil {
			return fmt.Errorf("assembling %s: %w", a.Name, err)
		}
		targets = append(targets, target{a.Name, p, &a})
	default:
		return fmt.Errorf("nothing to check: pass -app, -all or -src")
	}

	var profile *prof.Profile
	if *against != "" {
		if len(targets) != 1 {
			return fmt.Errorf("-against-profile needs exactly one program (use -app or -src)")
		}
		b, err := os.ReadFile(*against)
		if err != nil {
			return err
		}
		if profile, err = prof.ParseProfile(b); err != nil {
			return err
		}
	}

	// Analyze everything, then render and decide the exit in one pass.
	var results []CheckResult
	worst, any := static.SevInfo, false
	corrFailure := ""
	for _, t := range targets {
		// One interpretation per program: its Findings join the
		// structural and value lints, and its cost model backs -estimate
		// and the -against-profile correlation.
		opts := absint.Options{}
		if t.app != nil {
			opts = absint.OptionsForApp(t.prog, *t.app, 2)
		}
		ir := absint.Run(static.Analyze(t.prog), opts)
		r := CheckResult{Program: t.name, Findings: ir.Findings(), Report: ir.A.BuildReport()}
		est := absint.EstimateOf(ir)
		if *estimate {
			r.Estimate = est
		}
		if profile != nil {
			r.CrossVal = ir.A.CrossValidate(profile)
			r.Correlation = absint.CrossValidate(est, profile)
			if *minCorr > 0 && r.Correlation.Spearman < *minCorr {
				corrFailure = fmt.Sprintf("%s: predicted-vs-observed spearman %.3f below -min-correlation %.3f",
					t.name, r.Correlation.Spearman, *minCorr)
			}
		}
		for _, f := range append(append([]static.Finding(nil), r.Findings...), r.CrossVal...) {
			any = true
			if f.Sev > worst {
				worst = f.Sev
			}
		}
		results = append(results, r)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	default:
		for _, r := range results {
			fmt.Fprintf(out, "== %s ==\n", r.Program)
			if *report {
				r.Report.WriteText(out)
			}
			if r.Estimate != nil {
				e := r.Estimate
				fmt.Fprintf(out, "estimate: %d static insts, %.0f dynamic (est), redundancy %.3f, lvip potential %.3f, %d divergence sites\n",
					e.StaticInsts, e.DynInsts, e.Redundancy, e.LVIPPotential, len(e.Divergence))
				for _, d := range e.Divergence {
					fmt.Fprintf(out, "estimate: divergence at %#x, reconverges %#x (span %d insts, freq %.0f)\n",
						d.BranchPC, d.ReconvPC, d.SpanInsts, d.Freq)
				}
			}
			for _, f := range r.Findings {
				fmt.Fprintf(out, "%s: %s\n", r.Program, f)
			}
			if profile != nil {
				if len(r.CrossVal) == 0 {
					fmt.Fprintf(out, "%s: cross-validation clean: every observed remerge is a post-dominator of its divergence\n", r.Program)
				}
				for _, f := range r.CrossVal {
					fmt.Fprintf(out, "%s: cross-validation: %s\n", r.Program, f)
				}
				if c := r.Correlation; c != nil {
					fmt.Fprintf(out, "%s: cross-validation: predicted-vs-observed merged fraction: spearman %.3f over %d sites (predicted %.3f, observed %.3f)\n",
						r.Program, c.Spearman, len(c.Points), c.PredictedRedundancy, c.ObservedRedundancy)
				}
			}
		}
	}

	if corrFailure != "" {
		return fmt.Errorf("%s", corrFailure)
	}
	if !failNever && any && worst >= failSev {
		return fmt.Errorf("findings at %s severity or above (fail threshold %s)", worst, failSev)
	}
	return nil
}

// Precheck is the admission gate behind mmtsim/mmtbench -precheck: it
// refuses app when mmtcheck -fail-on error would (see absint.CheckApp).
func Precheck(app workloads.App) error {
	if err := absint.CheckApp(app); err != nil {
		return fmt.Errorf("precheck: %w", err)
	}
	return nil
}
