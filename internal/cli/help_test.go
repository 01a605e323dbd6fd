package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// commands lists every command's entry point by its binary name.
var commands = []struct {
	name string
	run  func(args []string, out io.Writer) error
}{
	{"mmtbench", RunBench},
	{"mmtcached", RunCached},
	{"mmtcheck", RunCheck},
	{"mmtdse", RunDSE},
	{"mmtload", RunLoad},
	{"mmtpipe", RunPipe},
	{"mmtprofile", RunProfile},
	{"mmtrouter", RunRouter},
	{"mmtserved", RunServe},
	{"mmtsim", RunSim},
	{"mmttrace", RunTrace},
	{"mmtvet", RunVet},
}

// jDefault matches the -j help line's host-dependent default.
var jDefault = regexp.MustCompile(`(\n  -j int\n[^\n]*\(default )` + strconv.Itoa(runtime.NumCPU()) + `\)`)

// normalizeHelp replaces the two host-dependent defaults, -j
// (runtime.NumCPU) and -flight-dump-dir (os.TempDir), with placeholders.
func normalizeHelp(s string) string {
	s = strings.ReplaceAll(s, fmt.Sprintf("(default %q)", os.TempDir()), `(default "$TMPDIR")`)
	return jDefault.ReplaceAllString(s, "${1}$$NCPU)")
}

// TestHelpGolden pins every command's flag surface: names, types,
// defaults and help text, exactly as -h prints them.
func TestHelpGolden(t *testing.T) {
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := c.run([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("%s -h: got error %v, want flag.ErrHelp", c.name, err)
			}
			got := []byte(normalizeHelp(out.String()))
			golden := filepath.Join("testdata", "help", c.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s -h drifted from golden (rerun with -update and re-review)\ngot:\n%s\nwant:\n%s", c.name, got, want)
			}
		})
	}
}
