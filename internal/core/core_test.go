package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

func setup(e *kripke.Explicit) (*kripke.Symbolic, *Generator) {
	s := kripke.FromExplicit(e)
	return s, NewGenerator(mc.New(s))
}

func stateOf(s *kripke.Symbolic, idx int) kripke.State {
	return kripke.IndexState(idx, len(s.Vars))
}

// figure1Model: a witness entirely inside one SCC (Figure 1). Ring
// 0 -> 1 -> 2 -> 0 with fairness constraints at 1 and 2.
func figure1Model() *kripke.Explicit {
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddInit(0)
	e.AddFairSet("h1", []bool{false, true, false})
	e.AddFairSet("h2", []bool{false, false, true})
	return e
}

// figure2Model: the witness must span several SCCs (Figure 2). SCC A =
// {0,1} (hits h1 only), SCC B = {2,3} (hits h2 only), terminal SCC C =
// {4,5} (hits both). A -> B -> C.
func figure2Model() *kripke.Explicit {
	e := kripke.NewExplicit(6)
	// SCC A
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	// SCC B
	e.AddEdge(2, 3)
	e.AddEdge(3, 2)
	// terminal SCC C
	e.AddEdge(4, 5)
	e.AddEdge(5, 4)
	// DAG edges
	e.AddEdge(1, 2)
	e.AddEdge(3, 4)
	e.AddInit(0)
	e.AddFairSet("h1", []bool{false, true, false, true, true, false})
	e.AddFairSet("h2", []bool{false, false, false, false, false, true})
	return e
}

func TestWitnessEGSingleSCC(t *testing.T) {
	s, g := setup(figure1Model())
	tr, err := g.WitnessEG(bdd.True, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("invalid witness: %v\n%s", err, tr)
	}
	if g.Stats.Restarts != 0 {
		t.Fatalf("single-SCC witness should not restart (restarts=%d)", g.Stats.Restarts)
	}
	// The whole structure is one 3-cycle: cycle length must be 3.
	if tr.CycleLen() != 3 {
		t.Fatalf("cycle length = %d, want 3\n%s", tr.CycleLen(), tr)
	}
}

func TestWitnessEGMultiSCCRestarts(t *testing.T) {
	s, g := setup(figure2Model())
	tr, err := g.WitnessEG(bdd.True, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("invalid witness: %v\n%s", err, tr)
	}
	if g.Stats.Restarts == 0 {
		t.Fatal("multi-SCC witness should restart at least once")
	}
	// The only component satisfying both constraints is C = {4,5}, so
	// the cycle must live there.
	for i := tr.CycleStart; i < len(tr.States); i++ {
		idx := kripke.StateIndex(tr.States[i])
		if idx != 4 && idx != 5 {
			t.Fatalf("cycle state %d outside terminal SCC\n%s", idx, tr)
		}
	}
}

func TestWitnessEGPrecomputeStrategy(t *testing.T) {
	s, g := setup(figure2Model())
	g.Strategy = StrategyPrecompute
	tr, err := g.WitnessEG(bdd.True, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("invalid witness: %v\n%s", err, tr)
	}
}

func TestWitnessEGNotSatisfied(t *testing.T) {
	// p holds nowhere on any cycle.
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(0, "p")
	e.AddInit(0)
	s, g := setup(e)
	pset, _ := s.AtomSet(ctl.Atom("p"))
	if _, err := g.WitnessEG(pset, stateOf(s, 0)); err != ErrNotSatisfied {
		t.Fatalf("want ErrNotSatisfied, got %v", err)
	}
}

func TestWitnessEGRespectsInvariant(t *testing.T) {
	// Two cycles: 0<->1 (p everywhere), 2<->3 (no p). EG p from 0 must
	// stay within {0,1}.
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.AddEdge(0, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 2)
	e.Label(0, "p")
	e.Label(1, "p")
	e.AddInit(0)
	s, g := setup(e)
	pset, _ := s.AtomSet(ctl.Atom("p"))
	tr, err := g.WitnessEG(pset, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEG(s, tr, pset); err != nil {
		t.Fatalf("invalid witness: %v\n%s", err, tr)
	}
}

func TestWitnessEUFinite(t *testing.T) {
	// chain 0 -> 1 -> 2(goal) -> 2
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 2)
	e.Label(2, "goal")
	e.AddInit(0)
	s, g := setup(e)
	goal, _ := s.AtomSet(ctl.Atom("goal"))
	tr, err := g.WitnessEU(bdd.True, goal, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEU(s, tr, bdd.True, goal); err != nil {
		t.Fatalf("invalid EU witness: %v\n%s", err, tr)
	}
	if tr.Len() != 3 {
		t.Fatalf("EU witness should be minimal-length (3 states), got %d", tr.Len())
	}
	if tr.IsLasso() {
		t.Fatal("finite witness requested")
	}
}

func TestWitnessEUMinimality(t *testing.T) {
	// Two routes to goal: direct (0->g) and long (0->1->2->g). The ring
	// walk must take the 1-step route.
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 3)
	e.Label(3, "goal")
	e.AddInit(0)
	s, g := setup(e)
	goal, _ := s.AtomSet(ctl.Atom("goal"))
	tr, err := g.WitnessEU(bdd.True, goal, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("EU witness not shortest: %d states\n%s", tr.Len(), tr)
	}
}

func TestWitnessEX(t *testing.T) {
	e := figure1Model()
	s, g := setup(e)
	// EX of "being at state 1" from state 0
	target := s.StateCube(stateOf(s, 1))
	tr, err := g.WitnessEX(target, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEX(s, tr, target); err != nil {
		t.Fatalf("invalid EX witness: %v", err)
	}
}

func TestWitnessEXNotSatisfied(t *testing.T) {
	e := figure1Model()
	s, g := setup(e)
	// no edge 0 -> 2
	target := s.StateCube(stateOf(s, 2))
	if _, err := g.WitnessEX(target, stateOf(s, 0)); err != ErrNotSatisfied {
		t.Fatalf("want ErrNotSatisfied, got %v", err)
	}
}

// TestCounterexampleAGAF reproduces the paper's counterexample shape:
// AG(r -> AF a) fails, the counterexample is a path to an r-state
// followed by a fair cycle avoiding a.
func TestCounterexampleAGAF(t *testing.T) {
	// 0 -> 1(r) -> 2 -> 3, 3 -> 2 (cycle without a), 2 -> 4(a), 4 -> 4.
	e := kripke.NewExplicit(5)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 2)
	e.AddEdge(2, 4)
	e.AddEdge(4, 4)
	e.Label(1, "r")
	e.Label(4, "a")
	e.AddInit(0)
	s, g := setup(e)
	ok, tr, err := g.CounterexampleInit(ctl.MustParse("AG (r -> AF a)"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("property should fail")
	}
	if tr == nil || !tr.IsLasso() {
		t.Fatalf("counterexample must be a lasso:\n%s", tr)
	}
	if err := ValidatePath(s, tr); err != nil {
		t.Fatalf("invalid counterexample: %v\n%s", err, tr)
	}
	// The trace must start at the initial state, pass through an
	// r-state, and its cycle must avoid a.
	if kripke.StateIndex(tr.States[0]) != 0 {
		t.Fatal("counterexample must start at the initial state")
	}
	rset, _ := s.AtomSet(ctl.Atom("r"))
	aset, _ := s.AtomSet(ctl.Atom("a"))
	sawR := false
	for _, st := range tr.States {
		if s.Holds(rset, st) {
			sawR = true
		}
	}
	if !sawR {
		t.Fatalf("counterexample never reaches an r-state:\n%s", tr)
	}
	for i := tr.CycleStart; i < len(tr.States); i++ {
		if s.Holds(aset, tr.States[i]) {
			t.Fatalf("cycle contains an a-state:\n%s", tr)
		}
	}
}

func TestCounterexampleInitHolds(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(1, "a")
	e.AddInit(0)
	_, g := setup(e)
	ok, tr, err := g.CounterexampleInit(ctl.MustParse("AF a"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || tr != nil {
		t.Fatal("property holds; no counterexample expected")
	}
}

func TestWitnessNestedEF(t *testing.T) {
	// EF (p & EX q): witness should reach p-state then step to q-state.
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 3)
	e.Label(2, "p")
	e.Label(3, "q")
	e.AddInit(0)
	s, g := setup(e)
	tr, err := g.Witness(ctl.MustParse("EF (p & EX q)"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePath(s, tr); err != nil {
		t.Fatalf("invalid witness: %v\n%s", err, tr)
	}
	// must visit state 2 (p) then state 3 (q)
	if kripke.StateIndex(tr.States[len(tr.States)-2]) != 2 ||
		kripke.StateIndex(tr.Last()) != 3 {
		t.Fatalf("nested witness path wrong:\n%s", tr)
	}
}

func TestWitnessDisjunction(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(1, "q")
	e.AddInit(0)
	s, g := setup(e)
	// first disjunct false at 0, second true
	tr, err := g.Witness(ctl.MustParse("EX false | EX q"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("disjunction witness wrong:\n%s", tr)
	}
}

func TestWitnessNotSatisfiedTopLevel(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(1, "q")
	e.AddInit(0)
	s, g := setup(e)
	if _, err := g.Witness(ctl.MustParse("EX !q"), stateOf(s, 0)); err != ErrNotSatisfied {
		t.Fatalf("want ErrNotSatisfied, got %v", err)
	}
}

func TestTraceFormatting(t *testing.T) {
	s, g := setup(figure1Model())
	tr, err := g.WitnessEG(bdd.True, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if !strings.Contains(out, "loop starts here") || !strings.Contains(out, "state 0:") {
		t.Fatalf("String() output malformed:\n%s", out)
	}
	delta := tr.DeltaString()
	if !strings.Contains(delta, "state 0:") {
		t.Fatalf("DeltaString() malformed:\n%s", delta)
	}
	// fairness hits annotated
	if !strings.Contains(out, "fair: h1") || !strings.Contains(out, "fair: h2") {
		t.Fatalf("fairness annotations missing:\n%s", out)
	}
}

// TestRandomFairEGWitnesses is the stress test for the witness
// construction: random fair structures, witnesses generated for every
// initial EG-true state under both strategies, all validated.
func TestRandomFairEGWitnesses(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		nfair := 1 + trial%3
		e := kripke.RandomExplicit(r, 6+r.Intn(10), 2, []string{"p"}, nfair, 0.2)
		s := kripke.FromExplicit(e)
		for _, strat := range []Strategy{StrategySimple, StrategyPrecompute} {
			g := NewGenerator(mc.New(s))
			g.Strategy = strat
			fairSet := g.C.Fair()
			// try every reachable state satisfying fair EG true
			reach, _ := s.Reachable()
			cands := s.M.And(reach, fairSet)
			for _, st := range s.EnumStates(cands, 5) {
				tr, err := g.WitnessEG(bdd.True, st)
				if err != nil {
					t.Fatalf("trial %d strat %v: WitnessEG: %v", trial, strat, err)
				}
				if err := ValidateEG(s, tr, bdd.True); err != nil {
					t.Fatalf("trial %d strat %v: invalid witness: %v\n%s", trial, strat, err, tr)
				}
			}
		}
	}
}

// TestRandomEGWithInvariant stresses EG p witnesses (nontrivial f).
func TestRandomEGWithInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 40; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, []string{"p"}, trial%2, 0.4)
		// make p common so EG p is often nonempty
		for st := 0; st < e.N; st++ {
			if r.Intn(4) != 0 {
				e.Labels[st]["p"] = true
			}
		}
		s := kripke.FromExplicit(e)
		g := NewGenerator(mc.New(s))
		pset, err := s.AtomSet(ctl.Atom("p"))
		if err != nil {
			t.Fatal(err)
		}
		var egp bdd.Ref
		if len(s.Fair) == 0 {
			egp = g.C.EG(pset)
		} else {
			egp, _ = g.C.FairEG(pset)
		}
		reach, _ := s.Reachable()
		for _, st := range s.EnumStates(s.M.And(reach, egp), 4) {
			tr, err := g.WitnessEG(pset, st)
			if err != nil {
				t.Fatalf("trial %d: WitnessEG: %v", trial, err)
			}
			if err := ValidateEG(s, tr, pset); err != nil {
				t.Fatalf("trial %d: invalid: %v\n%s", trial, err, tr)
			}
		}
	}
}

// TestRandomEUWitnesses stresses EU witnesses.
func TestRandomEUWitnesses(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, []string{"p", "q"}, trial%2, 0.4)
		s := kripke.FromExplicit(e)
		g := NewGenerator(mc.New(s))
		pset, _ := s.AtomSet(ctl.Atom("p"))
		qset, _ := s.AtomSet(ctl.Atom("q"))
		euSet := g.C.FairEU(pset, qset)
		reach, _ := s.Reachable()
		for _, st := range s.EnumStates(s.M.And(reach, euSet), 4) {
			tr, err := g.WitnessEU(pset, qset, st)
			if err != nil {
				t.Fatalf("trial %d: WitnessEU: %v", trial, err)
			}
			if err := ValidateEU(s, tr, pset, qset); err != nil {
				t.Fatalf("trial %d: invalid EU: %v\n%s", trial, err, tr)
			}
		}
	}
}
