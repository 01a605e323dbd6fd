package sim

import (
	"testing"

	"mmt/internal/workloads"
)

// TestDiagFigure5 prints the full Fig. 5 speedup tables; a diagnostic for
// retuning workloads, skipped unless run with -v:
//
//	go test ./internal/sim -run TestDiagFigure5 -v
func TestDiagFigure5(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic; run with -v")
	}
	for _, name := range []string{"fig5a", "fig5c"} {
		for _, tb := range artifactTables(t, name, workloads.All()) {
			t.Logf("\n%s", tb)
		}
	}
}
