package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// egNodes collects the EG subformulas of a basis formula.
func egNodes(f *ctl.Formula, out []*ctl.Formula) []*ctl.Formula {
	if f == nil {
		return out
	}
	if f.Kind == ctl.KEG {
		out = append(out, f)
	}
	return egNodes(f.R, egNodes(f.L, out))
}

// compareLassos builds the EG witness for f from `from` twice on one
// generator, by WitnessEG and by the ring construction alone. The first
// must be a valid lasso inside egSet, as short as the second, and
// neither may record a fairness hit: the structure has no constraints.
func compareLassos(t *testing.T, what string, s *kripke.Symbolic, gen *core.Generator, f, egSet bdd.Ref, from kripke.State) {
	t.Helper()
	walk, err := gen.WitnessEG(f, from)
	if err != nil {
		t.Fatalf("%s: WitnessEG: %v", what, err)
	}
	if err := core.ValidateEG(s, walk, egSet); err != nil {
		t.Errorf("%s: the walk's lasso is no EG witness: %v\n%s", what, err, walk)
	}
	rings, err := gen.RingLasso(f, from)
	if err != nil {
		t.Fatalf("%s: ring construction: %v", what, err)
	}
	if walk.Len() > rings.Len() {
		t.Errorf("%s: the walk's lasso has %d states, the ring construction's %d\nwalk:\n%s\nrings:\n%s",
			what, walk.Len(), rings.Len(), walk, rings)
	}
	for _, tr := range []*core.Trace{walk, rings} {
		if len(tr.FairHits) != 0 || strings.Contains(tr.String(), "fair:") {
			t.Errorf("%s: unfair lasso reports fairness hits %v\n%s", what, tr.FairHits, tr)
		}
	}
}

// TestWalkLassoAgainstRings checks the forward walk of unfair EG
// witnesses against the ring construction on every failing SPEC and
// LTLSPEC of models/*.smv, hanoi-7, chase-16 and arbiter-8 whose
// structure has no fairness constraint, each under the image its model
// picks (the process models' disjunctive one included). A CTL counterexample's EG witness starts at one of
// its states inside the EG set; each such state is tried. An LTL
// counterexample is the EG true witness from FairEmptiness's start.
func TestWalkLassoAgainstRings(t *testing.T) {
	paths, err := filepath.Glob("../../models/*.smv")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no models: %v", err)
	}
	type model struct{ name, src string }
	var models []model
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{filepath.Base(p), string(src)})
	}
	arbiter := modelgen.ArbiterSource(8)
	specs, _ := modelgen.ArbiterSpecs(8)
	for _, sp := range specs {
		arbiter += "SPEC " + sp + "\n"
	}
	models = append(models,
		model{"hanoi-7", modelgen.HanoiSource(7)},
		model{"chase-16", modelgen.ChaseSource(16)},
		model{"arbiter-8", arbiter})

	var ctlStarts, ltlStarts int
	var closures, fallbacks uint64
	for _, md := range models {
		c, err := smv.CompileSource(md.src, smv.Config{})
		if err != nil {
			t.Fatalf("%s: %v", md.name, err)
		}
		if len(c.S.Fair) == 0 {
			checker := mc.New(c.S)
			gen := core.NewGenerator(checker)
			for _, sp := range c.Module.Specs {
				if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
					t.Fatalf("%s: %s: %v", md.name, sp.Source, err)
				}
				holds, tr, err := gen.CounterexampleInit(sp.Formula)
				if err != nil {
					t.Fatalf("%s: %s: %v", md.name, sp.Source, err)
				}
				if holds {
					continue
				}
				for _, eg := range egNodes(ctl.PushNegations(ctl.Existential(ctl.Not(sp.Formula))), nil) {
					egSet, err := checker.Check(eg)
					if err != nil {
						t.Fatal(err)
					}
					inner, err := checker.Check(eg.L)
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range tr.States {
						if c.S.Holds(egSet, st) {
							compareLassos(t, md.name+": "+sp.Source, c.S, gen, inner, egSet, st)
							ctlStarts++
						}
					}
				}
			}
			closures += gen.Stats.WalkClosures
			fallbacks += gen.Stats.WalkFallbacks
			checker.Close()
		}
		for _, sp := range c.Module.LTLSpecs {
			p, err := c.Product(sp.Formula, sp.Source)
			if err != nil {
				t.Fatalf("%s: %s: %v", md.name, sp.Source, err)
			}
			if len(p.S.Fair) > 0 {
				continue
			}
			ch := mc.New(p.S)
			empty, start := ch.FairEmptiness(p.Accept)
			if !empty {
				egSet, _ := ch.FairEG(bdd.True)
				gen := core.NewGenerator(ch)
				compareLassos(t, md.name+": LTL "+sp.Source, p.S, gen, bdd.True, egSet, start)
				closures += gen.Stats.WalkClosures
				ltlStarts++
			}
			ch.Close()
		}
	}
	t.Logf("%d CTL and %d LTL starts, %d walk closures, %d fallbacks",
		ctlStarts, ltlStarts, closures, fallbacks)
	if ctlStarts == 0 || ltlStarts == 0 || closures == 0 {
		t.Errorf("%d CTL and %d LTL starts compared with %d walk closures, want all > 0",
			ctlStarts, ltlStarts, closures)
	}
}

// TestWalkFallsBackOnLongCycle gives EG p a single p-cycle of 12 states,
// longer than the walk's budget, beside a short cycle of ¬p states. The
// walk must give up and the witness must be the ring construction's.
func TestWalkFallsBackOnLongCycle(t *testing.T) {
	const n = 12
	e := kripke.NewExplicit(n + 2)
	for i := 0; i < n; i++ {
		e.AddEdge(i, (i+1)%n)
		e.Label(i, "p")
	}
	e.AddEdge(0, n)
	e.AddEdge(n, n+1)
	e.AddEdge(n+1, n)
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	gen := core.NewGenerator(mc.New(s))
	p, err := s.AtomSet(ctl.Atom("p"))
	if err != nil {
		t.Fatal(err)
	}
	from := kripke.IndexState(0, len(s.Vars))
	tr, err := gen.WitnessEG(p, from)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Stats.WalkFallbacks != 1 || gen.Stats.WalkClosures != 0 {
		t.Fatalf("walk closures %d, fallbacks %d; want 0 and 1", gen.Stats.WalkClosures, gen.Stats.WalkFallbacks)
	}
	rings, err := gen.RingLasso(p, from)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != rings.String() || tr.CycleStart != rings.CycleStart {
		t.Errorf("fallback lasso differs from the ring construction's:\n%s\nrings:\n%s", tr, rings)
	}
	if err := core.ValidateEG(s, tr, p); err != nil {
		t.Errorf("fallback lasso: %v\n%s", err, tr)
	}
	if tr.CycleLen() != n || len(tr.FairHits) != 0 {
		t.Errorf("cycle of %d states with fairness hits %v, want the %d-cycle and none\n%s", tr.CycleLen(), tr.FairHits, n, tr)
	}
}
