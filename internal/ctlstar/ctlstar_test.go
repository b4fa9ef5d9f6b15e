package ctlstar

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

func setup(e *kripke.Explicit) (*kripke.Symbolic, *Checker) {
	s := kripke.FromExplicit(e)
	return s, New(mc.New(s))
}

func stateOf(s *kripke.Symbolic, idx int) kripke.State {
	return kripke.IndexState(idx, len(s.Vars))
}

// gfFgModel: states 0->1->0 (cycle A, p at 1), 0->2, 2->3->2 (cycle B,
// q at 2 and 3).
func gfFgModel() *kripke.Explicit {
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.AddEdge(0, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 2)
	e.Label(1, "p")
	e.Label(2, "q")
	e.Label(3, "q")
	e.AddInit(0)
	return e
}

func TestParseAndPrint(t *testing.T) {
	f := MustParse("E (GF p | FG q) & (GF r)")
	if len(f) != 2 || len(f[0]) != 2 || len(f[1]) != 1 {
		t.Fatalf("parse shape wrong: %s", f)
	}
	if !f[0][0].GF || f[0][1].GF || !f[1][0].GF {
		t.Fatalf("term kinds wrong: %s", f)
	}
	// without leading E, compound args
	g := MustParse("(FG (a & b))")
	if len(g) != 1 || g[0][0].GF {
		t.Fatalf("parse wrong: %s", g)
	}
	if _, err := Parse("E (XX p)"); err == nil {
		t.Fatal("bad term should fail")
	}
	if _, err := Parse("E (GF p"); err == nil {
		t.Fatal("unbalanced parens should fail")
	}
}

// TestParseReadsTreeShape: clauses are the conjuncts and terms the
// disjuncts of one parsed path formula, however they are parenthesized.
func TestParseReadsTreeShape(t *testing.T) {
	for src, want := range map[string]string{
		"E (G F p | F (G q)) & GF r":  "E (GF (p) | FG (q)) & (GF (r))",
		"(GF p) & ((GF q) & (GF r))":  "E (GF (p)) & (GF (q)) & (GF (r))",
		"E(FG EX q | (GF E [p U q]))": "E (FG (EX q) | GF (E [p U q]))",
	} {
		f, err := Parse(src)
		if err != nil || f.String() != want {
			t.Errorf("Parse(%q) = %v, %v; want %s", src, f, err, want)
		}
	}
	for _, src := range []string{"GF p -> q", "GF (p U q)", "GF p | FG q & GF r", "GFp", "E [p U q]"} {
		if f, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", src, f)
		}
	}
}

func TestGFHolds(t *testing.T) {
	s, sc := setup(gfFgModel())
	// E GF p: cycle 0<->1 visits p infinitely often.
	set, err := sc.Check(MustParse("E (GF p)"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, stateOf(s, 0)) {
		t.Fatal("E GF p should hold at 0")
	}
	// but not from states 2,3 (stuck in cycle B, no p)
	if s.Holds(set, stateOf(s, 2)) {
		t.Fatal("E GF p should fail at 2")
	}
}

func TestFGHolds(t *testing.T) {
	s, sc := setup(gfFgModel())
	set, err := sc.Check(MustParse("E (FG q)"))
	if err != nil {
		t.Fatal(err)
	}
	// from 0 we can move to cycle B where q holds forever
	for _, idx := range []int{0, 2, 3} {
		if !s.Holds(set, stateOf(s, idx)) {
			t.Fatalf("E FG q should hold at %d", idx)
		}
	}
}

func TestConjunctionOfClauses(t *testing.T) {
	s, sc := setup(gfFgModel())
	// E (GF p) & (GF !p): alternate 0,1 forever.
	set, err := sc.Check(MustParse("E (GF p) & (GF !p)"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, stateOf(s, 0)) {
		t.Fatal("should hold at 0")
	}
	// E (GF p) & (FG q): impossible — p-cycle has no q... and q-cycle no p.
	set, err = sc.Check(MustParse("E (GF p) & (FG q)"))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 4; idx++ {
		if s.Holds(set, stateOf(s, idx)) {
			t.Fatalf("E (GF p)&(FG q) should fail everywhere, holds at %d", idx)
		}
	}
}

func TestDisjunctionWithinClause(t *testing.T) {
	s, sc := setup(gfFgModel())
	set, err := sc.Check(MustParse("E (GF p | FG q)"))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 4; idx++ {
		if !s.Holds(set, stateOf(s, idx)) {
			t.Fatalf("clause should hold at every state, fails at %d", idx)
		}
	}
}

func TestMultiFGClauseNotOverApproximated(t *testing.T) {
	// Model where G(q1 ∨ q2) holds on a cycle alternating q1,q2 but
	// neither FG q1 nor FG q2 holds: 0(q1) <-> 1(q2).
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.Label(0, "q1")
	e.Label(1, "q2")
	e.AddInit(0)
	s, sc := setup(e)
	set, err := sc.Check(MustParse("E (FG q1 | FG q2)"))
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 2; idx++ {
		if s.Holds(set, stateOf(s, idx)) {
			t.Fatalf("E(FG q1 | FG q2) must fail at %d (naive EL accepts)", idx)
		}
	}
}

func TestAmbientFairnessFolded(t *testing.T) {
	// 0 -> 0 (q), 0 -> 1, 1 -> 1 (h). Ambient fairness h only at 1.
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 0)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(0, "q")
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, true})
	s, sc := setup(e)
	// E FG q would hold via the 0-self-loop, but that path is unfair.
	set, err := sc.Check(MustParse("E (FG q)"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Holds(set, stateOf(s, 0)) {
		t.Fatal("ambient fairness must rule out the q-loop")
	}
}

func TestELAgreesWithCaseSplit(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 6+r.Intn(8), 2, []string{"p", "q", "r"}, trial%2, 0.3)
		s, sc := setup(e)
		formulas := []Formula{
			MustParse("E (GF p)"),
			MustParse("E (FG q)"),
			MustParse("E (GF p | FG q)"),
			MustParse("E (GF p) & (GF q)"),
			MustParse("E (GF p | FG q) & (GF r | FG p)"),
			MustParse("E (FG p | FG q)"),
		}
		for _, f := range formulas {
			el, err := sc.CheckEL(f)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := sc.CheckSplit(f)
			if err != nil {
				t.Fatal(err)
			}
			if el != cs {
				t.Fatalf("trial %d: EL and case-split disagree on %s", trial, f)
			}
		}
		_ = s
	}
}

func TestWitnessShapes(t *testing.T) {
	s, sc := setup(gfFgModel())
	for _, src := range []string{
		"E (GF p)",
		"E (FG q)",
		"E (GF p | FG q)",
		"E (GF p) & (GF !p)",
	} {
		f := MustParse(src)
		tr, err := sc.Witness(f, stateOf(s, 0))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := sc.ValidateWitness(f, tr); err != nil {
			t.Fatalf("%s: invalid witness: %v\n%s", src, err, tr)
		}
	}
}

func TestWitnessNotSatisfied(t *testing.T) {
	s, sc := setup(gfFgModel())
	f := MustParse("E (GF p) & (FG q)")
	if _, err := sc.Witness(f, stateOf(s, 0)); err != core.ErrNotSatisfied {
		t.Fatalf("want ErrNotSatisfied, got %v", err)
	}
}

func TestRandomWitnessesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	formulas := []string{
		"E (GF p)",
		"E (FG q)",
		"E (GF p | FG q)",
		"E (GF p) & (GF q)",
		"E (GF p | FG q) & (GF q | FG p)",
	}
	for trial := 0; trial < 25; trial++ {
		e := kripke.RandomExplicit(r, 6+r.Intn(8), 2, []string{"p", "q"}, trial%2, 0.3)
		s, sc := setup(e)
		for _, src := range formulas {
			f := MustParse(src)
			set, err := sc.Check(f)
			if err != nil {
				t.Fatal(err)
			}
			reach, _ := s.Reachable()
			for _, st := range s.EnumStates(s.M.And(reach, set), 3) {
				tr, err := sc.Witness(f, st)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, src, err)
				}
				if err := sc.ValidateWitness(f, tr); err != nil {
					t.Fatalf("trial %d %s: invalid: %v\n%s", trial, src, err, tr)
				}
			}
		}
	}
}

func TestWitnessWithCompoundArgs(t *testing.T) {
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 1)
	e.Label(1, "a")
	e.Label(1, "b")
	e.Label(2, "a")
	e.AddInit(0)
	s, sc := setup(e)
	f := MustParse("E (FG (a)) & (GF (a & b))")
	set, err := sc.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, stateOf(s, 0)) {
		t.Fatal("formula should hold at 0")
	}
	tr, err := sc.Witness(f, stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.ValidateWitness(f, tr); err != nil {
		t.Fatalf("invalid: %v\n%s", err, tr)
	}
}

func TestFormulaString(t *testing.T) {
	f := Formula{
		{GFTerm(ctl.Atom("p")), FGTerm(ctl.Atom("q"))},
		{GFTerm(ctl.Atom("r"))},
	}
	want := "E (GF (p) | FG (q)) & (GF (r))"
	if f.String() != want {
		t.Fatalf("String = %q, want %q", f.String(), want)
	}
}
