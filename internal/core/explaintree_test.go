package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

func TestExplainTreePropositional(t *testing.T) {
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.Label(0, "p")
	e.AddInit(0)
	s, g := setup(e)
	n, err := g.ExplainTree(ctl.MustParse("p"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != 1 || n.Evidence != nil {
		t.Fatalf("propositional tree should be a single leaf: %+v", n)
	}
}

func TestExplainTreeNested(t *testing.T) {
	// EF (p & EX q)
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 3)
	e.AddEdge(3, 3)
	e.Label(2, "p")
	e.Label(3, "q")
	e.AddInit(0)
	s, g := setup(e)
	n, err := g.ExplainTree(ctl.MustParse("EF (p & EX q)"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(s); err != nil {
		t.Fatal(err)
	}
	// root: EU with evidence; child: conjunction; grandchildren: p leaf
	// and EX q with its own 2-state evidence.
	if n.Evidence == nil || n.Evidence.IsLasso() {
		t.Fatal("EU evidence missing or malformed")
	}
	if len(n.Children) != 1 {
		t.Fatalf("EU should have one target child, has %d", len(n.Children))
	}
	and := n.Children[0]
	if len(and.Children) != 2 {
		t.Fatalf("conjunction should have two children, has %d", len(and.Children))
	}
	var sawEX bool
	for _, c := range and.Children {
		if c.Formula.Kind == ctl.KEX {
			sawEX = true
			if c.Evidence == nil || c.Evidence.Len() != 2 {
				t.Fatal("EX evidence malformed")
			}
			if kripke.StateIndex(c.Evidence.Last()) != 3 {
				t.Fatal("EX evidence must step to the q-state")
			}
		}
	}
	if !sawEX {
		t.Fatal("EX child missing")
	}
	out := n.Render(s.FormatState)
	for _, want := range []string{"E [true U p & EX q]", "EX q", "@"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestExplainTreeEGWithStructure(t *testing.T) {
	// EG (p | q): cycle alternates p and q states.
	e := kripke.NewExplicit(2)
	e.AddEdge(0, 1)
	e.AddEdge(1, 0)
	e.Label(0, "p")
	e.Label(1, "q")
	e.AddInit(0)
	s, g := setup(e)
	// propositional body: evidence only, no children
	n, err := g.ExplainTree(ctl.MustParse("EG (p | q)"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(s); err != nil {
		t.Fatal(err)
	}
	if n.Evidence == nil || !n.Evidence.IsLasso() {
		t.Fatal("EG needs lasso evidence")
	}
	if len(n.Children) != 0 {
		t.Fatal("propositional body needs no sub-explanation")
	}
	// temporal body: the body is explained at the cycle head
	n, err = g.ExplainTree(ctl.MustParse("EG (p | EX p)"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(s); err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 1 {
		t.Fatalf("EG with temporal body should explain the body:\n%s", n.Render(s.FormatState))
	}
}

func TestCounterexampleTreeAGAF(t *testing.T) {
	// Same model as the linear counterexample test.
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
	n, err := g.CounterexampleTree(ctl.MustParse("AG (r -> AF a)"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(s); err != nil {
		t.Fatal(err)
	}
	// The tree demonstrates EF(r ∧ EG ¬a): root EU evidence, child
	// conjunction with an r-leaf and an EG node with a lasso avoiding a.
	if n.Formula.Kind != ctl.KEU {
		t.Fatalf("root should be EU, is %s", n.Formula.Kind)
	}
	found := false
	var scan func(*ExplainNode)
	scan = func(x *ExplainNode) {
		if x.Formula.Kind == ctl.KEG && x.Evidence != nil && x.Evidence.IsLasso() {
			found = true
		}
		for _, c := range x.Children {
			scan(c)
		}
	}
	scan(n)
	if !found {
		t.Fatalf("EG lasso node missing:\n%s", n.Render(s.FormatState))
	}
}

func TestExplainTreeNotSatisfied(t *testing.T) {
	e := kripke.NewExplicit(1)
	e.AddEdge(0, 0)
	e.AddInit(0)
	s, g := setup(e)
	if _, err := g.ExplainTree(ctl.MustParse("EX false"), stateOf(s, 0)); err != ErrNotSatisfied {
		t.Fatalf("want ErrNotSatisfied, got %v", err)
	}
}

func TestExplainTreeRandomValidate(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	atoms := []string{"p", "q"}
	formulas := []string{
		"EF (p & EX q)",
		"EG (p | q)",
		"E [p U q] | E [q U p]",
		"EF EG p",
		"!AG p",
	}
	for trial := 0; trial < 25; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, atoms, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		g := NewGenerator(mc.New(s))
		for _, src := range formulas {
			f := ctl.MustParse(src)
			set, err := g.C.Check(ctl.PushNegations(ctl.Existential(f)))
			if err != nil {
				t.Fatal(err)
			}
			reach, _ := s.Reachable()
			for _, st := range s.EnumStates(s.M.And(reach, set), 3) {
				n, err := g.ExplainTree(f, st)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, src, err)
				}
				if err := n.Validate(s); err != nil {
					t.Fatalf("trial %d %s: %v", trial, src, err)
				}
			}
		}
	}
}

// TestValidateAnchorsChildren moves children of a valid tree off their
// anchors: the EX target to the first state of its evidence, the
// conjunct the trace does not follow to another state, and the spine to
// a node outside the children.
func TestValidateAnchorsChildren(t *testing.T) {
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 2)
	e.Label(0, "p")
	e.Label(1, "q")
	e.AddInit(0)
	s, g := setup(e)
	n, err := g.ExplainTree(ctl.MustParse("p & EX q"), stateOf(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(s); err != nil {
		t.Fatal(err)
	}
	ex := n.Spine
	if ex == nil || ex.Formula.Kind != ctl.KEX || ex.Spine == nil {
		t.Fatalf("the trace should follow EX q to its target:\n%s", n.Render(s.FormatState))
	}
	target := ex.Spine
	target.State = ex.Evidence.First()
	if err := n.Validate(s); err == nil {
		t.Fatal("an EX target moved to the evidence's first state validated")
	}
	target.State = ex.Evidence.Last()

	p := n.Children[0]
	p.State = stateOf(s, 1)
	if err := n.Validate(s); err == nil {
		t.Fatal("a conjunct moved off its node's state validated")
	}
	p.State = stateOf(s, 0)

	n.Spine = &ExplainNode{Formula: ex.Formula, State: ex.State}
	if err := n.Validate(s); err == nil {
		t.Fatal("a spine outside the children validated")
	}
}

// TestWitnessIsTreeSpine checks that the linear trace walks the
// explanation tree's spine: each spine node's evidence appears in the
// trace, starting where the previous one ended.
func TestWitnessIsTreeSpine(t *testing.T) {
	r := rand.New(rand.NewSource(707))
	formulas := []string{
		"EF (p & EX q)",
		"EX p & EG q",
		"E [EX p U q]",
		"EG (p | EX p)",
		"!AG (p -> AF q)",
		"EX (p | q) | EF EG p",
	}
	for trial := 0; trial < 20; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		g := NewGenerator(mc.New(s))
		reach, _ := s.Reachable()
		for _, src := range formulas {
			f := ctl.MustParse(src)
			set, err := g.C.Check(ctl.PushNegations(ctl.Existential(f)))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range s.EnumStates(s.M.And(reach, set), 3) {
				tr, err := g.Witness(f, st)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, src, err)
				}
				n, err := g.ExplainTree(f, st)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, src, err)
				}
				at := 0
				for x := n; x != nil; x = x.Spine {
					if !sameState(x.State, tr.States[at]) {
						t.Fatalf("trial %d %s: spine node %s is not at trace state %d\n%s",
							trial, src, x.Formula, at, tr)
					}
					if x.Evidence == nil {
						continue
					}
					for i, est := range x.Evidence.States {
						if at+i >= tr.Len() || !sameState(est, tr.States[at+i]) {
							t.Fatalf("trial %d %s: evidence of %s leaves the trace at %d\n%s",
								trial, src, x.Formula, at+i, tr)
						}
					}
					if x.Evidence.IsLasso() && tr.CycleStart != at+x.Evidence.CycleStart {
						t.Fatalf("trial %d %s: cycle of %s not the trace's", trial, src, x.Formula)
					}
					at += x.Evidence.Len() - 1
				}
				if at != tr.Len()-1 {
					t.Fatalf("trial %d %s: spine ends at %d, trace at %d", trial, src, at, tr.Len()-1)
				}
			}
		}
	}
}
