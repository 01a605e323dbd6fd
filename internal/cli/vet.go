package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mmt/internal/lint"
)

// defaultVetRoots are the simulation entry packages whose import closure
// must stay deterministic.
var defaultVetRoots = []string{"mmt/internal/core", "mmt/internal/sim"}

// RunVet is the mmtvet command: the determinism linter over the
// simulation packages' import closure.
func RunVet(args []string, out io.Writer) error {
	fs := newFlags("mmtvet", out)
	var (
		dir    = fs.String("dir", ".", "module root (where go.mod lives)")
		roots  = fs.String("roots", strings.Join(defaultVetRoots, ","), "comma-separated root import paths whose closure is checked")
		format = fs.String("format", "text", "output format: text or json")
	)
	if done, err := fs.parse(args); done || err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want text or json)", *format)
	}
	var rootList []string
	for _, r := range strings.Split(*roots, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rootList = append(rootList, r)
		}
	}
	if len(rootList) == 0 {
		return fmt.Errorf("no roots to check")
	}

	findings, err := lint.Check(*dir, rootList)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return err
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
		if len(findings) == 0 {
			fmt.Fprintf(out, "mmtvet: clean: no nondeterminism in the closure of %s\n", strings.Join(rootList, ", "))
		}
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d determinism findings", len(findings))
	}
	return nil
}
