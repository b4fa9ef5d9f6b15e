package mc

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// TestFairEGFixpointInvariants checks the defining properties of the
// fair EG fixpoint and its saved rings on random structures:
//
//  1. Result ⊆ f;
//  2. for every constraint k, Result ⊆ EX E[f U Result ∧ h_k];
//  3. the rings are increasing and their union is E[f U Result ∧ h_k];
//  4. Q_0 = Result ∧ h_k.
func TestFairEGFixpointInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 25; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, []string{"p"}, 1+trial%3, 0.3)
		s := kripke.FromExplicit(e)
		c := New(s)
		pset, err := s.AtomSet(ctl.Atom("p"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []bdd.Ref{bdd.True, pset} {
			res, rings := c.FairEG(f)
			if !s.M.Implies(res, f) {
				t.Fatalf("trial %d: EG result not within f", trial)
			}
			if len(rings.PerFair) != len(s.Fair) {
				t.Fatalf("ring family count %d != %d", len(rings.PerFair), len(s.Fair))
			}
			for k, rs := range rings.PerFair {
				target := s.M.And(res, s.Fair[k])
				if rs[0] != target {
					t.Fatalf("trial %d: Q_0 != Result ∧ h_%d", trial, k)
				}
				for i := 1; i < len(rs); i++ {
					if !s.M.Implies(rs[i-1], rs[i]) {
						t.Fatalf("trial %d: rings not increasing", trial)
					}
				}
				eu := c.EU(f, target)
				if rs[len(rs)-1] != eu {
					t.Fatalf("trial %d: final ring != EU set", trial)
				}
				// fixpoint step: res ⊆ EX(EU(f, res ∧ h_k))
				if !s.M.Implies(res, c.EX(eu)) {
					t.Fatalf("trial %d: fixpoint property violated for constraint %d", trial, k)
				}
			}
		}
	}
}

// TestFairDefinitionalLaws checks CheckFairEX/EU against their
// definitions at the BDD level.
func TestFairDefinitionalLaws(t *testing.T) {
	r := rand.New(rand.NewSource(3141))
	for trial := 0; trial < 25; trial++ {
		e := kripke.RandomExplicit(r, 10, 2, []string{"p", "q"}, 1+trial%2, 0.3)
		s := kripke.FromExplicit(e)
		c := New(s)
		pset, _ := s.AtomSet(ctl.Atom("p"))
		qset, _ := s.AtomSet(ctl.Atom("q"))
		fair := c.Fair()

		if c.FairEX(pset) != c.EX(s.M.And(pset, fair)) {
			t.Fatal("CheckFairEX law broken")
		}
		if c.FairEU(pset, qset) != c.EU(pset, s.M.And(qset, fair)) {
			t.Fatal("CheckFairEU law broken")
		}
		// fair = FairEG(True)
		res, _ := c.FairEG(bdd.True)
		if res != fair {
			t.Fatal("Fair() != FairEG(True)")
		}
	}
}

// TestEGTrueIsAllStatesWithoutFairness: on a total structure EG true
// holds everywhere when no fairness constraints exist.
func TestEGTrueIsAllStatesWithoutFairness(t *testing.T) {
	r := rand.New(rand.NewSource(999))
	e := kripke.RandomExplicit(r, 12, 2, nil, 0, 0)
	s := kripke.FromExplicit(e)
	c := New(s)
	eg := c.EG(bdd.True)
	// restricted to valid states (the binary encoding may have slack)
	if !s.M.Implies(s.Invar, eg) {
		t.Fatal("EG true must cover all (valid) states of a total structure")
	}
}

// TestNestedFairFormulas exercises fairness interaction with nesting.
func TestNestedFairFormulas(t *testing.T) {
	// 0 -> 1 -> 0 and 1 -> 2 -> 2; fairness at 0 makes the left loop the
	// only fair one, so under fair semantics EG EF p (p at 2) must fail
	// at... EF p holds at 0,1,2; EG (EF p): fair paths looping 0-1 keep
	// EF p true... since 2 is reachable from 0 and 1 always.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.AddEdge(1, 2)
	e.AddEdge(2, 2)
	e.Label(2, "p")
	e.AddInit(0)
	e.AddFairSet("h", []bool{true, false, false})
	s := kripke.FromExplicit(e)
	c := New(s)
	// Fair EF p requires a FAIR path that reaches p; the only p-state
	// (2) starts no fair path, so fair EF p is empty — and so is
	// EG EF p. This is exactly the CheckFairEU(g ∧ fair) restriction.
	set := c.MustCheck(ctl.MustParse("EF p"))
	for st := 0; st < 3; st++ {
		if s.Holds(set, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("fair EF p should be empty, holds at %d", st)
		}
	}
	set = c.MustCheck(ctl.MustParse("EG EF p"))
	for st := 0; st < 3; st++ {
		if s.Holds(set, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("EG EF p should be empty, holds at %d", st)
		}
	}
	// EF of a fair-loop state works: EF h-state.
	e.Label(0, "q")
	s2 := kripke.FromExplicit(e)
	c2 := New(s2)
	set = c2.MustCheck(ctl.MustParse("EG EF q"))
	for _, st := range []int{0, 1} {
		if !s2.Holds(set, kripke.IndexState(st, len(s2.Vars))) {
			t.Fatalf("EG EF q should hold at %d", st)
		}
	}
	// but EG p fails everywhere: p-states cannot reach the fair loop...
	// state 2 loops forever but unfairly.
	set = c.MustCheck(ctl.MustParse("EG p"))
	for st := 0; st < 3; st++ {
		if s.Holds(set, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("EG p should fail at %d under fairness", st)
		}
	}
	// AF !p under fairness: every fair path eventually leaves p... state
	// 2 starts no fair path, so trivially all *fair* paths from 2 — none
	// exist; AF quantifies over fair paths only: at state 2 it holds
	// vacuously. At 0 and 1 (p false) it holds immediately.
	set = c.MustCheck(ctl.MustParse("AF !p"))
	for st := 0; st < 3; st++ {
		if !s.Holds(set, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("AF !p should hold at %d", st)
		}
	}
}
