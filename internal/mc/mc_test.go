package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/explicit"
	"repro/internal/kripke"
)

// diamond builds the 4-state structure
//
//	0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 3
//
// with atom p in {1}, q in {3}.
func diamond() *kripke.Explicit {
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(0, 2)
	e.AddEdge(1, 3)
	e.AddEdge(2, 3)
	e.AddEdge(3, 3)
	e.Label(1, "p")
	e.Label(3, "q")
	e.AddInit(0)
	return e
}

func holdsAt(t *testing.T, c *Checker, s *kripke.Symbolic, f string, state int, want bool) {
	t.Helper()
	set, err := c.Check(ctl.MustParse(f))
	if err != nil {
		t.Fatalf("Check(%s): %v", f, err)
	}
	st := kripke.IndexState(state, len(s.Vars))
	if got := s.Holds(set, st); got != want {
		t.Fatalf("state %d ⊨ %s = %v, want %v", state, f, got, want)
	}
}

func TestDiamondBasics(t *testing.T) {
	e := diamond()
	s := kripke.FromExplicit(e)
	c := New(s)

	holdsAt(t, c, s, "EX p", 0, true)
	holdsAt(t, c, s, "EX p", 1, false)
	holdsAt(t, c, s, "AX q", 1, true)
	holdsAt(t, c, s, "AX q", 0, false)
	holdsAt(t, c, s, "EF q", 0, true)
	holdsAt(t, c, s, "AF q", 0, true)
	holdsAt(t, c, s, "AG q", 3, true)
	holdsAt(t, c, s, "AG q", 0, false)
	holdsAt(t, c, s, "EG q", 3, true)
	holdsAt(t, c, s, "E [!q U q]", 0, true)
	holdsAt(t, c, s, "A [!q U q]", 0, true)
	holdsAt(t, c, s, "EF (p & EX q)", 0, true)
}

func TestCheckInit(t *testing.T) {
	e := diamond()
	s := kripke.FromExplicit(e)
	c := New(s)
	ok, _, err := c.CheckInit(ctl.MustParse("AF q"))
	if err != nil || !ok {
		t.Fatalf("AF q at init: ok=%v err=%v", ok, err)
	}
	ok, _, err = c.CheckInit(ctl.MustParse("AX p"))
	if err != nil || ok {
		t.Fatalf("AX p should fail at init: ok=%v err=%v", ok, err)
	}
}

func TestCheckUnknownAtom(t *testing.T) {
	s := kripke.FromExplicit(diamond())
	c := New(s)
	if _, err := c.Check(ctl.MustParse("EF bogus")); err == nil {
		t.Fatal("unknown atom must error")
	}
}

func TestEGNeedsCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 2 ; p in {0,1} only. EG p is false everywhere since
	// the only cycle (2) lacks p.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 2)
	e.Label(0, "p")
	e.Label(1, "p")
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	c := New(s)
	for st := 0; st < 3; st++ {
		holdsAt(t, c, s, "EG p", st, false)
	}
	// add the cycle 1 -> 0 and EG p becomes true at 0 and 1
	e2 := kripke.NewExplicit(3)
	e2.AddEdge(0, 1)
	e2.AddEdge(1, 2)
	e2.AddEdge(2, 2)
	e2.AddEdge(1, 0)
	e2.Label(0, "p")
	e2.Label(1, "p")
	e2.AddInit(0)
	s2 := kripke.FromExplicit(e2)
	c2 := New(s2)
	holdsAt(t, c2, s2, "EG p", 0, true)
	holdsAt(t, c2, s2, "EG p", 1, true)
	holdsAt(t, c2, s2, "EG p", 2, false)
}

func TestFairnessPrunesUnfairPaths(t *testing.T) {
	// Two self-loop states: 0 -> 0 (p), 0 -> 1, 1 -> 1 (h). Fairness h
	// only holds at 1, so the only fair path from 0 eventually moves to
	// 1 and stays. Under fairness EG p must be false at 0.
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 0)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(0, "p")
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, true})
	s := kripke.FromExplicit(e)
	c := New(s)
	holdsAt(t, c, s, "EG p", 0, false)
	// but without fairness it is true
	e2 := kripke.NewExplicit(2)
	e2.AddEdge(0, 0)
	e2.AddEdge(0, 1)
	e2.AddEdge(1, 1)
	e2.Label(0, "p")
	e2.AddInit(0)
	s2 := kripke.FromExplicit(e2)
	c2 := New(s2)
	holdsAt(t, c2, s2, "EG p", 0, true)
}

func TestFairSetRestrictsEXEU(t *testing.T) {
	// 0 -> 1 -> 1 and 0 -> 2 -> 2. Fairness holds only at 2, so only
	// state 2's branch is fair. q labels state 1.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.AddEdge(0, 2)
	e.AddEdge(2, 2)
	e.Label(1, "q")
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, false, true})
	s := kripke.FromExplicit(e)
	c := New(s)
	// EX q under fairness: successor 1 satisfies q but starts no fair path.
	holdsAt(t, c, s, "EX q", 0, false)
	holdsAt(t, c, s, "EF q", 0, false)
	// EX !q under fairness: successor 2 works.
	holdsAt(t, c, s, "EX !q", 0, true)
}

func TestFairEGRings(t *testing.T) {
	// ring of 3 states, fairness at state 2; rings must grow out from
	// (EG true)∧h.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, false, true})
	s := kripke.FromExplicit(e)
	c := New(s)
	res, rings := c.FairEG(bdd.True)
	// every state is fair
	for st := 0; st < 3; st++ {
		if !s.Holds(res, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("state %d should satisfy fair EG true", st)
		}
	}
	if len(rings.PerFair) != 1 {
		t.Fatalf("expected 1 ring family, got %d", len(rings.PerFair))
	}
	rs := rings.PerFair[0]
	// Q_0 = {2}, Q_1 ⊇ {1,2}, Q_2 ⊇ {0,1,2}
	if !s.Holds(rs[0], kripke.IndexState(2, len(s.Vars))) {
		t.Fatal("Q_0 must contain the constraint state")
	}
	if s.Holds(rs[0], kripke.IndexState(0, len(s.Vars))) {
		t.Fatal("Q_0 too big")
	}
	last := rs[len(rs)-1]
	for st := 0; st < 3; st++ {
		if !s.Holds(last, kripke.IndexState(st, len(s.Vars))) {
			t.Fatalf("final ring must cover state %d", st)
		}
	}
	// rings increase
	for i := 1; i < len(rs); i++ {
		if !s.M.Implies(rs[i-1], rs[i]) {
			t.Fatal("rings must be increasing")
		}
	}
}

func TestEUApproxRingsSemantics(t *testing.T) {
	// path 0 -> 1 -> 2, self-loop at 2; g at 2. Q_i = states within i
	// steps of 2.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 2)
	e.Label(2, "g")
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	c := New(s)
	g, err := s.AtomSet(ctl.Atom("g"))
	if err != nil {
		t.Fatal(err)
	}
	_, rings := c.EUApprox(bdd.True, g)
	if len(rings) < 3 {
		t.Fatalf("expected at least 3 rings, got %d", len(rings))
	}
	wantIn := func(ring bdd.Ref, st int, want bool) {
		t.Helper()
		if got := s.Holds(ring, kripke.IndexState(st, len(s.Vars))); got != want {
			t.Fatalf("ring membership of %d = %v, want %v", st, got, want)
		}
	}
	wantIn(rings[0], 2, true)
	wantIn(rings[0], 1, false)
	wantIn(rings[1], 1, true)
	wantIn(rings[1], 0, false)
	wantIn(rings[2], 0, true)
}

// randomFormula builds a random CTL formula over the given atoms.
func randomFormula(r *rand.Rand, atoms []string, depth int) *ctl.Formula {
	if depth == 0 || r.Intn(5) == 0 {
		switch r.Intn(3) {
		case 0:
			return ctl.True()
		case 1:
			return ctl.Atom(atoms[r.Intn(len(atoms))])
		default:
			return ctl.Not(ctl.Atom(atoms[r.Intn(len(atoms))]))
		}
	}
	switch r.Intn(10) {
	case 0:
		return ctl.Not(randomFormula(r, atoms, depth-1))
	case 1:
		return ctl.And(randomFormula(r, atoms, depth-1), randomFormula(r, atoms, depth-1))
	case 2:
		return ctl.Or(randomFormula(r, atoms, depth-1), randomFormula(r, atoms, depth-1))
	case 3:
		return ctl.EX(randomFormula(r, atoms, depth-1))
	case 4:
		return ctl.EU(randomFormula(r, atoms, depth-1), randomFormula(r, atoms, depth-1))
	case 5:
		return ctl.EG(randomFormula(r, atoms, depth-1))
	case 6:
		return ctl.AX(randomFormula(r, atoms, depth-1))
	case 7:
		return ctl.AU(randomFormula(r, atoms, depth-1), randomFormula(r, atoms, depth-1))
	case 8:
		return ctl.AG(randomFormula(r, atoms, depth-1))
	default:
		return ctl.AF(randomFormula(r, atoms, depth-1))
	}
}

// TestCrossValidateAgainstExplicit is the central correctness test: on
// random structures (with and without fairness) the symbolic checker
// must agree with the explicit-state checker on every state for random
// CTL formulas.
func TestCrossValidateAgainstExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	atoms := []string{"p", "q"}
	for trial := 0; trial < 60; trial++ {
		nfair := trial % 3 // 0, 1, 2 fairness constraints
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, atoms, nfair, 0.25)
		s := kripke.FromExplicit(e)
		sym := New(s)
		exp := explicit.New(e)
		for fi := 0; fi < 8; fi++ {
			f := randomFormula(r, atoms, 3)
			symSet, err := sym.Check(f)
			if err != nil {
				t.Fatalf("symbolic Check(%s): %v", f, err)
			}
			expSet, err := exp.Check(f)
			if err != nil {
				t.Fatalf("explicit Check(%s): %v", f, err)
			}
			for st := 0; st < e.N; st++ {
				got := s.Holds(symSet, kripke.IndexState(st, len(s.Vars)))
				if got != expSet[st] {
					t.Fatalf("trial %d: state %d disagrees on %s (fair=%d): symbolic=%v explicit=%v",
						trial, st, f, nfair, got, expSet[st])
				}
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := kripke.FromExplicit(diamond())
	c := New(s)
	c.MustCheck(ctl.MustParse("EF q"))
	if c.Stats.EUFixpoints == 0 || c.Stats.EUIterations == 0 {
		t.Fatal("EU stats not recorded")
	}
	c.MustCheck(ctl.MustParse("EG q"))
	if c.Stats.EGFixpoints == 0 {
		t.Fatal("EG stats not recorded")
	}
	if c.Stats.PeakNodes == 0 {
		t.Fatal("peak nodes not recorded")
	}
}

func TestMemoization(t *testing.T) {
	s := kripke.FromExplicit(diamond())
	c := New(s)
	c.MustCheck(ctl.MustParse("EF q"))
	n := c.Stats.EUFixpoints
	c.MustCheck(ctl.MustParse("EF q"))
	if c.Stats.EUFixpoints != n {
		t.Fatal("memoization failed: EU recomputed")
	}
}

func TestFairCachedOnce(t *testing.T) {
	e := diamond()
	e.AddFairSet("h", []bool{true, true, true, true})
	s := kripke.FromExplicit(e)
	c := New(s)
	f1 := c.Fair()
	f2 := c.Fair()
	if f1 != f2 {
		t.Fatal("Fair() should be cached")
	}
}

func ExampleChecker_Check() {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(1, "done")
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	c := New(s)
	ok, _, _ := c.CheckInit(ctl.MustParse("AF done"))
	fmt.Println(ok)
	// Output: true
}

// TestSimplifyPreservesSemantics: ctl.Simplify must never change a
// formula's satisfaction set, on models with and without fairness
// constraints — the soundness contract its rules were chosen for.
func TestSimplifyPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(515))
	atoms := []string{"p", "q"}
	for trial := 0; trial < 40; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, atoms, trial%3, 0.25)
		s := kripke.FromExplicit(e)
		c := New(s)
		for fi := 0; fi < 8; fi++ {
			f := randomFormula(r, atoms, 3)
			plain, err := c.Check(f)
			if err != nil {
				t.Fatal(err)
			}
			simplified, err := c.Check(ctl.Simplify(f))
			if err != nil {
				t.Fatalf("simplified %s (from %s): %v", ctl.Simplify(f), f, err)
			}
			if plain != simplified {
				t.Fatalf("trial %d: Simplify changed semantics of %s -> %s (fair=%d)",
					trial, f, ctl.Simplify(f), len(s.Fair))
			}
		}
	}
}

// TestSimplifyPreservesSemanticsWithConstants stresses the folding
// rules on formulas with embedded constants, especially the
// fairness-sensitive shapes that must NOT fold.
func TestSimplifyPreservesSemanticsWithConstants(t *testing.T) {
	r := rand.New(rand.NewSource(616))
	srcs := []string{
		"EF true", "EG true", "AF false", "AG false",
		"E [p U true]", "A [p U false]",
		"EG (p | true)", "AF (p & false)",
		"EX (EF true)", "!EG true",
		"E [true U EG true]",
	}
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8, 2, []string{"p"}, 1+trial%2, 0.3)
		s := kripke.FromExplicit(e)
		c := New(s)
		for _, src := range srcs {
			f := ctl.MustParse(src)
			plain, err := c.Check(f)
			if err != nil {
				t.Fatal(err)
			}
			simplified, err := c.Check(ctl.Simplify(f))
			if err != nil {
				t.Fatal(err)
			}
			if plain != simplified {
				t.Fatalf("trial %d: Simplify changed semantics of %s -> %s (fair=%d)",
					trial, src, ctl.Simplify(f), len(s.Fair))
			}
		}
	}
}
