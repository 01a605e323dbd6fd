package absint

import (
	"testing"

	"mmt/internal/isa"
	"mmt/internal/prog"
	"mmt/internal/static"
	"mmt/internal/workloads"
)

// TestKernelsLintClean: the shipped kernels must stay below the CI
// fail-on threshold (no warnings or errors), structural and value lints
// alike.
func TestKernelsLintClean(t *testing.T) {
	apps := append(workloads.All(), workloads.MP()...)
	for _, a := range apps {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			r, err := AnalyzeApp(a, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range r.Findings() {
				if f.Sev > 0 { // info findings are fine
					t.Errorf("%s", f)
				} else {
					t.Logf("%s", f)
				}
			}
		})
	}
}

// TestStoreToText: a store whose address interval lies inside the text
// segment is exactly one finding at its PC, a store-to-text error (not
// also oob-access); the same store to the data segment is clean.
func TestStoreToText(t *testing.T) {
	findings := func(addr uint64) []static.Finding {
		p := &prog.Program{Name: "raw", Entry: prog.CodeBase, Base: prog.CodeBase, Insts: []isa.Inst{
			{Op: isa.OpAddi, Rd: 4, Rs1: isa.RegZero, Imm: int64(addr)},
			{Op: isa.OpSt, Rs1: 4, Rs2: isa.RegZero, Imm: 4},
			{Op: isa.OpHalt},
		}}
		return Run(static.Analyze(p), Options{}).Findings()
	}

	stPC := uint64(prog.CodeBase + isa.InstBytes)
	var atStore []static.Finding
	for _, f := range findings(prog.CodeBase) {
		if f.PC == stPC {
			atStore = append(atStore, f)
		}
	}
	if len(atStore) != 1 || atStore[0].Code != CodeStoreToText || atStore[0].Sev != static.SevError {
		t.Fatalf("findings at the text store %#x = %v, want exactly one store-to-text error", stPC, atStore)
	}

	if fs := findings(prog.DataBase); len(fs) != 0 {
		t.Errorf("false positive on data store: %v", fs)
	}
}
