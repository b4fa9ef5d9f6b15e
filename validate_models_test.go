package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/smv"
)

// TestModelTracesValidate exercises core's trace validators directly on
// every shipped model: for each SPEC we generate a counterexample (when
// the property fails) or a witness (when it holds and is existential in
// shape) and run the result through ValidatePath — and, for lassos on
// structures with fairness constraints, ValidateFairLasso. This is the
// end-to-end contract of the paper: every trace the generator emits is
// independently checkable against the model, whichever image path
// (partitioned or monolithic) produced it. Each structure's cache
// counters must also describe a hit rate: no more hits than lookups.
func TestModelTracesValidate(t *testing.T) {
	entries, err := os.ReadDir("models")
	if err != nil {
		t.Fatalf("models directory: %v", err)
	}
	validated := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".smv") {
			continue
		}
		t.Run(ent.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("models", ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := smv.CompileSource(string(src), smv.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s := compiled.S
			gen := core.NewGenerator(mc.New(s))
			for _, sp := range compiled.Module.Specs {
				if err := compiled.ResolveSpecAtoms(sp.Formula); err != nil {
					t.Fatalf("%s: %v", sp.Source, err)
				}
				holds, tr, err := gen.CounterexampleInit(sp.Formula)
				if err != nil {
					t.Fatalf("%s: %v", sp.Source, err)
				}
				if !holds {
					if tr == nil {
						t.Fatalf("%s: failed without a counterexample", sp.Source)
					}
					validateTrace(t, sp.Source, s, tr)
					validated++
					continue
				}
				// Satisfied specs with an existential top-level shape get a
				// witness from some initial state, validated the same way.
				switch sp.Formula.Kind {
				case ctl.KEX, ctl.KEU, ctl.KEG, ctl.KEF:
					start := s.PickState(s.Init)
					if start == nil {
						t.Fatalf("%s: no initial state", sp.Source)
					}
					tr, err := gen.Witness(sp.Formula, start)
					if err != nil {
						t.Fatalf("%s: witness: %v", sp.Source, err)
					}
					validateTrace(t, sp.Source, s, tr)
					validated++
				}
			}
			// Every failing LTLSPEC must produce a fair lasso over the
			// tableau product that validates against the product and,
			// projected onto the model, falsifies the formula.
			for _, sp := range compiled.Module.LTLSpecs {
				p, err := compiled.Product(sp.Formula, sp.Source)
				if err != nil {
					t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
				}
				ch := mc.New(p.S)
				holds, tr, err := p.Check(ch)
				if err != nil {
					t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
				}
				if !holds {
					if tr == nil {
						t.Fatalf("LTLSPEC %s: failed without a counterexample", sp.Source)
					}
					validateTrace(t, sp.Source, p.S, tr)
					if err := p.ReplayCounterexample(tr); err != nil {
						t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
					}
					validated++
				}
				checkCacheCounters(t, "LTLSPEC "+sp.Source, p.S)
				ch.Close()
			}
			checkCacheCounters(t, "model", s)
		})
	}
	if validated == 0 {
		t.Fatal("no trace was generated across all models — test is vacuous")
	}
}

// checkCacheCounters fails the test when s's computed-cache hits exceed
// its lookups, which would put RelStats.CacheHitRate above 1.
func checkCacheCounters(t *testing.T, what string, s *kripke.Symbolic) {
	t.Helper()
	if rel := s.RelStats(); rel.CacheHits > rel.CacheLookups {
		t.Errorf("%s: %d computed-cache hits exceed %d lookups", what, rel.CacheHits, rel.CacheLookups)
	}
}

// scenarioVerdicts pins the expected verdict of every SPEC and LTLSPEC
// of the protocol scenario models, in declaration order. The tables
// encode the intended CTL/LTL contrast: on ABP's lossy channels
// acknowledgement stays *possible* (AG (send -> EF ack) holds) but is
// not *inevitable* (G (send -> F ack) fails); on Peterson, fairness
// gives bounded waiting while plain eventuality still fails.
var scenarioVerdicts = map[string]struct{ ctl, ltl []bool }{
	"abp.smv": {
		ctl: []bool{true, true, true, true},
		ltl: []bool{false, true, true, false, true},
	},
	"peterson.smv": {
		ctl: []bool{true, true, true, true},
		ltl: []bool{true, true, true, false, false, false},
	},
	// Scaled planning/game scenarios (generated by modelgen.HanoiSource /
	// ChaseSource): hanoi's AG !goal counterexample is a 31-move solution
	// plan, chase's AF caught counterexample is the evader's escape lasso.
	"hanoi.smv": {
		ctl: []bool{true, false, true},
		ltl: []bool{false, true},
	},
	"chase.smv": {
		ctl: []bool{true, false, true, true},
		ltl: []bool{false, true},
	},
}

func TestScenarioModelVerdicts(t *testing.T) {
	for name, want := range scenarioVerdicts {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("models", name))
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := smv.CompileSource(string(src), smv.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(compiled.Module.Specs); got != len(want.ctl) {
				t.Fatalf("model declares %d SPECs, table expects %d", got, len(want.ctl))
			}
			if got := len(compiled.Module.LTLSpecs); got != len(want.ltl) {
				t.Fatalf("model declares %d LTLSPECs, table expects %d", got, len(want.ltl))
			}
			gen := core.NewGenerator(mc.New(compiled.S))
			for i, sp := range compiled.Module.Specs {
				holds, _, err := gen.CounterexampleInit(sp.Formula)
				if err != nil {
					t.Fatalf("%s: %v", sp.Source, err)
				}
				if holds != want.ctl[i] {
					t.Errorf("SPEC %s: got %v, want %v", sp.Source, holds, want.ctl[i])
				}
			}
			for i, sp := range compiled.Module.LTLSpecs {
				holds, _, _, err := compiled.CheckLTLSpec(sp.Formula, sp.Source)
				if err != nil {
					t.Fatalf("%s: %v", sp.Source, err)
				}
				if holds != want.ltl[i] {
					t.Errorf("LTLSPEC %s: got %v, want %v", sp.Source, holds, want.ltl[i])
				}
			}
		})
	}
}

func validateTrace(t *testing.T, spec string, s *kripke.Symbolic, tr *core.Trace) {
	t.Helper()
	if err := core.ValidatePath(s, tr); err != nil {
		t.Fatalf("%s: invalid trace: %v", spec, err)
	}
	if tr.IsLasso() && len(s.Fair) > 0 {
		if err := core.ValidateFairLasso(s, tr); err != nil {
			t.Fatalf("%s: lasso violates fairness: %v", spec, err)
		}
		// Assert the fairness contract directly, independent of the
		// validator's own machinery: EVERY fairness constraint of the
		// structure must be satisfied by some state on the cycle, else
		// the lasso demonstrates an unfair (hence irrelevant) path.
		for k, f := range s.Fair {
			hit := false
			for _, st := range tr.States[tr.CycleStart:] {
				if s.Holds(f, st) {
					hit = true
					break
				}
			}
			if !hit {
				t.Fatalf("%s: lasso cycle never satisfies fairness constraint %q",
					spec, s.FairNames[k])
			}
		}
	}
}
