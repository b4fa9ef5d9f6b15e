package repro

import (
	"os"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// lookups is the BDD work a manager has done, counted deterministically:
// its computed-table plus AndExists lookups.
func lookups(m *bdd.Manager) uint64 { return m.Stats.CacheLookups + m.Stats.AndExistsLookups }

// TestArbiterWitnessLookups pins the paper's claim that witnesses are
// nearly free once the check has run, as a deterministic count, on the
// 8-cell arbiter: its AG (req -> AF grant) counterexamples close their
// lassos inside EG sets without fairness constraints. The check is what
// an smvd session runs (reachability as the care set, the fair set, each
// spec's fixpoints), the witness is CounterexampleInit after it, and the
// witness may take no more than 5% of the check's lookups.
func TestArbiterWitnessLookups(t *testing.T) {
	c, err := smv.CompileSource(modelgen.ArbiterSource(8), smv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := c.S.M
	checker := mc.New(c.S)
	defer checker.Close()
	gen := core.NewGenerator(checker)
	start := lookups(m)
	checker.UseReachableCareSet()
	checker.Fair()
	check, witness := lookups(m)-start, uint64(0)
	specs, holds := modelgen.ArbiterSpecs(8)
	failing := 0
	for i, sp := range specs {
		if holds[i] {
			continue
		}
		failing++
		f := ctl.MustParse(sp)
		if err := c.ResolveSpecAtoms(f); err != nil {
			t.Fatal(err)
		}
		before := lookups(m)
		if _, err := checker.Check(f); err != nil {
			t.Fatal(err)
		}
		checked := lookups(m)
		ok, tr, err := gen.CounterexampleInit(f)
		if err != nil || ok || tr == nil {
			t.Fatalf("%s: holds %v, trace %v, err %v; want a counterexample", sp, ok, tr != nil, err)
		}
		check += checked - before
		witness += lookups(m) - checked
	}
	t.Logf("%d counterexamples: %d witness lookups, %d check lookups (%.4f); %d walk closures, %d fallbacks",
		failing, witness, check, float64(witness)/float64(check), gen.Stats.WalkClosures, gen.Stats.WalkFallbacks)
	if witness*20 > check {
		t.Errorf("witnesses took %d lookups, more than 5%% of the check's %d", witness, check)
	}
}

// TestHanoiWitnessReusesCheckRings pins the other half of that claim on
// the puzzle whose counterexample is an E[f U g] prefix: the check of
// AG !goal computes E[true U goal] and keeps its rings, so the
// counterexample CounterexampleInit builds right after it descends
// them. It runs no EU iteration and takes no more lookups than the
// check, on the shipped puzzle and on the 7-disc one, both under
// automatic reordering, as an smvd session checks them.
func TestHanoiWitnessReusesCheckRings(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"hanoi.smv", ""},
		{"hanoi-7", modelgen.HanoiSource(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src
			if src == "" {
				b, err := os.ReadFile("models/" + tc.name)
				if err != nil {
					t.Fatal(err)
				}
				src = string(b)
			}
			c, err := smv.CompileSource(src, smv.Config{Reorder: true})
			if err != nil {
				t.Fatal(err)
			}
			m := c.S.M
			checker := mc.New(c.S)
			defer checker.Close()
			gen := core.NewGenerator(checker)
			checker.UseReachableCareSet()
			checker.Fair()
			f := ctl.MustParse("AG !goal")
			if err := c.ResolveSpecAtoms(f); err != nil {
				t.Fatal(err)
			}
			before := lookups(m)
			if _, err := checker.Check(f); err != nil {
				t.Fatal(err)
			}
			checked, iters := lookups(m), checker.Stats.EUIterations
			ok, tr, err := gen.CounterexampleInit(f)
			if err != nil || ok || tr == nil {
				t.Fatalf("holds %v, trace %v, err %v; want a counterexample", ok, tr != nil, err)
			}
			check, witness := checked-before, lookups(m)-checked
			t.Logf("%d witness lookups, %d check lookups (%.4f); %d sift events",
				witness, check, float64(witness)/float64(check), m.Stats.AutoReorders)
			if n := checker.Stats.EUIterations - iters; n != 0 {
				t.Errorf("the counterexample ran %d EU iterations, want 0", n)
			}
			if witness > check {
				t.Errorf("the counterexample took %d lookups, more than the check's %d", witness, check)
			}
		})
	}
}
