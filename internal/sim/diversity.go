package sim

import (
	"fmt"
	"strings"

	"mmt/internal/asm"
	"mmt/internal/prog"
	"mmt/internal/workloads"
)

// Software-diversity study (paper §7: "different workloads, such as
// software diversity in the security domain, have similar execution but
// different executables, requiring a new, but similar, approach"). Two
// diversified builds of the same program — permuted register allocation
// and a different code layout — run two instances each on a 4-thread MMT.
// Because the binaries share no PCs, the ITID mechanism cannot merge
// across variants, and the measured gain quantifies exactly what the
// paper's future-work item would need to recover.

// permuteRegisters renames general-purpose registers in an assembly source
// (a crude register re-allocator producing a semantically identical but
// differently encoded executable). r0–r4 are preserved: r0/ra/sp are
// special and r4 conventionally holds tid/input pointers.
func permuteRegisters(src string) string {
	// A fixed permutation of r5..r28 (cycle shifted by 7). The scan is a
	// single pass over the input, so replacements are written directly.
	perm := make(map[string]string)
	const lo, hi = 5, 28
	for r := lo; r <= hi; r++ {
		to := lo + (r-lo+7)%(hi-lo+1)
		perm[fmt.Sprintf("r%d", r)] = fmt.Sprintf("r%d", to)
	}
	var b strings.Builder
	i := 0
	for i < len(src) {
		c := src[i]
		if c == ';' { // comments verbatim to end of line
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				b.WriteString(src[i:])
				break
			}
			b.WriteString(src[i : i+j])
			i += j
			continue
		}
		if c == 'r' && (i == 0 || !isWordByte(src[i-1])) {
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			if j > i+1 && (j == len(src) || !isWordByte(src[j])) {
				if to, ok := perm[src[i:j]]; ok {
					b.WriteString(to)
					i = j
					continue
				}
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// DiversityApps is the study's application set.
var DiversityApps = []string{"ammp", "mcf", "equake"}

// diversityTask describes one build/preset point as a custom-build task.
func diversityTask(a workloads.App, kind string, build sysBuilder, p Preset) Task {
	return Task{
		Variant: "diversity:" + a.Name + ":" + kind,
		Preset:  p,
		Threads: 4,
		Build:   build,
	}
}

// extensionDiversity runs the software-diversity study: per app, MMT-FXR's
// speedup over Base with four uniform instances and with 2+2 diversified
// builds.
func extensionDiversity(ex Exec, _ []workloads.App) (*Table, error) {
	var tasks []Task
	for _, name := range DiversityApps {
		a, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("sim: unknown app %q", name)
		}
		builds := [2]sysBuilder{buildUniform(a), buildDiverse(a)}
		for ki, kind := range diversityKinds {
			for _, p := range []Preset{PresetBase, PresetMMTFXR} {
				tasks = append(tasks, diversityTask(a, kind, builds[ki], p))
			}
		}
	}
	rs, err := collect(ex, tasks)
	if err != nil {
		return nil, err
	}
	t := appTable("diversity", "Extension (paper §7): software diversity — 4 uniform vs 2+2 diversified builds",
		num("uniform", 12), num("diversified", 12))
	for i, name := range DiversityApps {
		r := rs[4*i:]
		t.add(name, Speedup(r[0], r[1]), Speedup(r[2], r[3]))
	}
	return t, nil
}

// diversityKinds labels the two builds; the strings enter the task keys.
var diversityKinds = [2]string{"uniform", "2+2"}

type sysBuilder func() (*prog.System, error)

func buildUniform(a workloads.App) sysBuilder {
	return func() (*prog.System, error) {
		return a.Build(4, false)
	}
}

func buildDiverse(a workloads.App) sysBuilder {
	return func() (*prog.System, error) {
		pa, err := asm.Assemble(a.Name, a.Source)
		if err != nil {
			return nil, err
		}
		pb, err := asm.AssembleAt(a.Name+"-variant", permuteRegisters(a.Source), altCodeBase, altDataBase)
		if err != nil {
			return nil, err
		}
		init := func(ctx int, mem *prog.Memory) {
			if a.Init == nil {
				return
			}
			if ctx < 2 {
				a.Init(pa, ctx, mem, false)
			} else {
				a.Init(pb, ctx-2, mem, false)
			}
		}
		return prog.NewMultiSystem([]*prog.Program{pa, pa, pb, pb}, init)
	}
}
