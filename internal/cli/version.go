package cli

import (
	"runtime/debug"
	"strings"
)

// Version reports the build's identity: the main module version when one is
// stamped, plus the VCS revision the Go toolchain embeds, with "+dirty" when
// the working tree was modified. Used by every command's -version flag and
// written into trace metadata so a capture names the binary that produced
// it.
func Version() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "(unknown)"
	}
	v := info.Main.Version
	if v == "" {
		v = "(devel)"
	}
	var rev string
	var dirty bool
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		// Module pseudo-versions already embed the revision; only add
		// what the version string doesn't carry.
		if !strings.Contains(v, rev) {
			v += " " + rev
		}
		if dirty && !strings.Contains(v, "+dirty") {
			v += "+dirty"
		}
	}
	return v
}
