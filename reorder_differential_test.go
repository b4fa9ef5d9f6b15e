package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/smv"
)

// Differential test for dynamic reordering: every shipped SMV model and
// the Seitz arbiter are checked twice — once with reordering disabled,
// once with aggressive growth-triggered sifting — and the two runs must
// produce identical verdicts spec by spec. Every trace either run emits
// must independently validate against its model (ValidatePath, plus
// ValidateFairLasso for lassos under fairness). The traces themselves
// may legitimately differ (PickState's choice depends on the variable
// order), so validity rather than state-equality is the contract.

// aggressiveReorder makes sifting fire on modest-sized models while
// keeping each sift cheap (one pass over a bounded window) so the
// differential sweep stays fast.
var aggressiveReorder = bdd.ReorderOptions{
	GrowthTrigger: 1.5,
	MinNodes:      512,
	MaxPasses:     1,
	Window:        4,
	MaxBlocks:     16,
}

type specVerdict struct {
	spec     string
	holds    bool
	hasTrace bool
}

// checkAll checks every formula, validating any counterexample trace.
func checkAll(t *testing.T, s *kripke.Symbolic, specs []string, formulas []*ctl.Formula) []specVerdict {
	t.Helper()
	checker := mc.New(s)
	defer checker.Close()
	gen := core.NewGenerator(checker)
	out := make([]specVerdict, 0, len(formulas))
	for i, f := range formulas {
		holds, tr, err := gen.CounterexampleInit(f)
		if err != nil {
			t.Fatalf("%s: %v", specs[i], err)
		}
		if !holds {
			if tr == nil {
				t.Fatalf("%s: failed without a counterexample", specs[i])
			}
			validateTrace(t, specs[i], s, tr)
		}
		out = append(out, specVerdict{spec: specs[i], holds: holds, hasTrace: tr != nil})
	}
	return out
}

func compareVerdicts(t *testing.T, off, on []specVerdict) {
	t.Helper()
	if len(off) != len(on) {
		t.Fatalf("verdict count differs: %d off vs %d on", len(off), len(on))
	}
	for i := range off {
		if off[i].holds != on[i].holds {
			t.Errorf("%s: verdict differs with reordering (off=%v on=%v)",
				off[i].spec, off[i].holds, on[i].holds)
		}
		if off[i].hasTrace != on[i].hasTrace {
			t.Errorf("%s: trace presence differs with reordering (off=%v on=%v)",
				off[i].spec, off[i].hasTrace, on[i].hasTrace)
		}
	}
}

// representations parametrizes the root differential suites by node
// representation; the structural (nocomp) runs are the oracle for the
// complement-edge engine.
var representations = []struct {
	name string
	cfg  smv.Config
}{
	{"comp", smv.Config{}},
	{"nocomp", smv.Config{NoComplement: true}},
}

func TestReorderDifferentialModels(t *testing.T) {
	entries, err := os.ReadDir("models")
	if err != nil {
		t.Fatalf("models directory: %v", err)
	}
	var totalSifts uint64
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".smv") {
			continue
		}
		for _, rep := range representations {
			rep := rep
			t.Run(ent.Name()+"/"+rep.name, func(t *testing.T) {
				src, err := os.ReadFile(filepath.Join("models", ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				run := func(reorder bool) []specVerdict {
					compiled, err := smv.CompileSource(string(src), rep.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if reorder {
						compiled.S.M.EnableAutoReorder(&aggressiveReorder)
					}
					var specs []string
					var formulas []*ctl.Formula
					for _, sp := range compiled.Module.Specs {
						if err := compiled.ResolveSpecAtoms(sp.Formula); err != nil {
							t.Fatalf("%s: %v", sp.Source, err)
						}
						specs = append(specs, sp.Source)
						formulas = append(formulas, sp.Formula)
					}
					vs := checkAll(t, compiled.S, specs, formulas)
					if reorder {
						totalSifts += compiled.S.M.Stats.AutoReorders
						if err := bdd.CheckInvariants(compiled.S.M); err != nil {
							t.Fatalf("invariants after reordered run: %v", err)
						}
					}
					return vs
				}
				compareVerdicts(t, run(false), run(true))
			})
		}
	}
	// The differential is vacuous if no reordered run ever sifted.
	if totalSifts == 0 {
		t.Error("no model triggered a single auto-sift; lower the trigger thresholds")
	}
}

func TestReorderDifferentialArbiter(t *testing.T) {
	var formulas []*ctl.Formula
	for _, s := range circuit.ArbiterSpecs {
		formulas = append(formulas, ctl.MustParse(s))
	}
	run := func(reorder bool) []specVerdict {
		model, err := circuit.SeitzArbiter().Compile()
		if err != nil {
			t.Fatal(err)
		}
		if reorder {
			model.M.EnableAutoReorder(&aggressiveReorder)
		}
		vs := checkAll(t, model, circuit.ArbiterSpecs, formulas)
		if reorder {
			if model.M.Stats.AutoReorders == 0 {
				t.Error("arbiter run triggered no auto-sift; lower the trigger thresholds")
			}
			if err := bdd.CheckInvariants(model.M); err != nil {
				t.Fatalf("invariants after reordered run: %v", err)
			}
		}
		return vs
	}
	off := run(false)
	on := run(true)
	compareVerdicts(t, off, on)
	// The paper's headline spec must still fail with a counterexample.
	if off[0].holds || !off[0].hasTrace {
		t.Fatalf("AG (tr1 -> AF ta1) expected to fail with a trace: %+v", off[0])
	}
}
