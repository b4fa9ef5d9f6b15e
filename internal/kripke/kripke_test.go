package kripke

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
)

// twoBitCounter builds a 2-bit modular counter: (b1 b0) increments each
// step; initial state 00.
func twoBitCounter(t *testing.T) *Symbolic {
	t.Helper()
	b := NewBuilder([]string{"b0", "b1"})
	m := b.S.M
	b.InitValue("b0", false)
	b.InitValue("b1", false)
	b.NextFunc("b0", m.Not(b.Cur("b0")))
	b.NextFunc("b1", m.Xor(b.Cur("b1"), b.Cur("b0")))
	return b.Finish()
}

func TestCounterImage(t *testing.T) {
	s := twoBitCounter(t)
	// successor of 00 is 01 (b0 flips)
	img := s.Image(s.Init)
	states := s.EnumStates(img, 0)
	if len(states) != 1 {
		t.Fatalf("counter image has %d states", len(states))
	}
	if !states[0][0] || states[0][1] {
		t.Fatalf("successor of 00 is %v, want b0=1,b1=0", states[0])
	}
}

func TestCounterReachable(t *testing.T) {
	s := twoBitCounter(t)
	reach, iters := s.Reachable()
	if got := s.CountStates(reach); got != 4 {
		t.Fatalf("reachable count = %v, want 4", got)
	}
	if iters < 4 {
		t.Fatalf("unexpected iteration count %d", iters)
	}
	if !s.IsTotal() {
		t.Fatal("counter must be total")
	}
}

func TestPreimageInverseOfImage(t *testing.T) {
	s := twoBitCounter(t)
	// preimage of {01} is {00}
	st := State{true, false}
	pre := s.Preimage(s.StateCube(st))
	got := s.EnumStates(pre, 0)
	if len(got) != 1 || got[0][0] || got[0][1] {
		t.Fatalf("preimage of 01 = %v, want {00}", got)
	}
}

func TestHasEdgeAndSuccessors(t *testing.T) {
	s := twoBitCounter(t)
	if !s.HasEdge(State{false, false}, State{true, false}) {
		t.Fatal("edge 00->01 missing")
	}
	if s.HasEdge(State{false, false}, State{false, true}) {
		t.Fatal("bogus edge 00->10 present")
	}
	// Holds reads next-state variables as false, whatever the edges
	// HasEdge evaluated before it.
	s.HasEdge(State{true, true}, State{true, true})
	if s.Holds(s.M.Var(s.Vars[0].Next), State{false, false}) {
		t.Fatal("HasEdge left a next-state value behind for Holds")
	}
	succ := s.Successors(State{true, true}, 0)
	if len(succ) != 1 || succ[0][0] || succ[0][1] {
		t.Fatalf("successor of 11 = %v, want 00", succ)
	}
}

func TestAtomSetBoolean(t *testing.T) {
	s := twoBitCounter(t)
	set, err := s.AtomSet(ctl.Atom("b0"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, State{true, false}) || s.Holds(set, State{false, true}) {
		t.Fatal("atom b0 resolves wrong")
	}
	// boolean compared to constants
	set, err = s.AtomSet(ctl.Eq("b0", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, State{false, false}) {
		t.Fatal("b0=0 wrong")
	}
	set, err = s.AtomSet(ctl.Neq("b1", "true"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, State{true, false}) {
		t.Fatal("b1!=true wrong")
	}
	if _, err := s.AtomSet(ctl.Atom("nope")); err == nil {
		t.Fatal("unknown atom should error")
	}
	if _, err := s.AtomSet(ctl.Eq("b0", "banana")); err == nil {
		t.Fatal("bad boolean constant should error")
	}
}

func TestRegisterEqAtom(t *testing.T) {
	s := twoBitCounter(t)
	m := s.M
	s.RegisterEqAtom("count", func(v string) (bdd.Ref, error) {
		// count = b1*2 + b0 compared against "0".."3"
		b0, b1 := m.Var(s.Vars[0].Cur), m.Var(s.Vars[1].Cur)
		switch v {
		case "0":
			return m.And(m.Not(b0), m.Not(b1)), nil
		case "1":
			return m.And(b0, m.Not(b1)), nil
		case "2":
			return m.And(m.Not(b0), b1), nil
		default:
			return m.And(b0, b1), nil
		}
	})
	set, err := s.AtomSet(ctl.Eq("count", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Holds(set, State{false, true}) || s.Holds(set, State{true, true}) {
		t.Fatal("eq resolver wrong")
	}
	nset, err := s.AtomSet(ctl.Neq("count", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Holds(nset, State{false, true}) {
		t.Fatal("neq resolver wrong")
	}
}

func TestNextChoiceNondeterminism(t *testing.T) {
	b := NewBuilder([]string{"x"})
	m := b.S.M
	b.InitValue("x", false)
	b.NextChoice("x", m.Not(b.Cur("x"))) // x may stay or flip
	s := b.Finish()
	succ := s.Successors(State{false}, 0)
	if len(succ) != 2 {
		t.Fatalf("NextChoice gives %d successors, want 2", len(succ))
	}
}

func TestInvariantRestrictsModel(t *testing.T) {
	b := NewBuilder([]string{"x", "y"})
	m := b.S.M
	b.InitValue("x", false)
	b.InitValue("y", false)
	b.NextChoice("x", m.Not(b.Cur("x")))
	b.NextChoice("y", m.Not(b.Cur("y")))
	b.Invariant(m.Not(m.And(b.Cur("x"), b.Cur("y")))) // never both
	s := b.Finish()
	reach, _ := s.Reachable()
	if s.Holds(reach, State{true, true}) {
		t.Fatal("invariant violated in reachable set")
	}
	if got := s.CountStates(reach); got != 3 {
		t.Fatalf("reachable = %v, want 3", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := NewBuilder([]string{"x"})
	m := b.S.M
	b.InitValue("x", false)
	// only transition: 0 -> 1 (state 1 deadlocks)
	b.ConstrainTrans(m.And(m.Not(b.Cur("x")), b.Next("x")))
	s := b.Finish()
	if s.IsTotal() {
		t.Fatal("should not be total")
	}
	dead := s.DeadlockStates()
	if !s.Holds(dead, State{true}) || s.Holds(dead, State{false}) {
		t.Fatal("deadlock set wrong")
	}
}

func TestFormatState(t *testing.T) {
	s := twoBitCounter(t)
	got := s.FormatState(State{true, false})
	if !strings.Contains(got, "b0=1") || !strings.Contains(got, "b1=0") {
		t.Fatalf("FormatState = %q", got)
	}
}

func TestStateKeyRoundtrip(t *testing.T) {
	st := State{true, false, true}
	if st.Key() != "101" {
		t.Fatalf("Key = %q", st.Key())
	}
	if StateIndex(st) != 5 {
		t.Fatalf("StateIndex = %d", StateIndex(st))
	}
	back := IndexState(5, 3)
	if back.Key() != st.Key() {
		t.Fatal("IndexState roundtrip failed")
	}
}

func TestExplicitBasics(t *testing.T) {
	e := NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(0, 1) // idempotent
	e.AddEdge(1, 2)
	e.AddInit(0)
	e.Label(2, "goal")
	if len(e.Succ[0]) != 1 {
		t.Fatal("duplicate edge added")
	}
	if e.IsTotal() {
		t.Fatal("state 2 deadlocks")
	}
	e.MakeTotal()
	if !e.IsTotal() {
		t.Fatal("MakeTotal failed")
	}
	pred := e.Pred()
	if len(pred[1]) != 1 || pred[1][0] != 0 {
		t.Fatalf("Pred wrong: %v", pred)
	}
	if got := e.AtomNames(); len(got) != 1 || got[0] != "goal" {
		t.Fatalf("AtomNames = %v", got)
	}
}

func TestFromExplicitRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		e := RandomExplicit(r, 10, 2, []string{"p", "q"}, 2, 0.3)
		s := FromExplicit(e)
		// every edge present, every non-edge absent
		for u := 0; u < e.N; u++ {
			su := IndexState(u, len(s.Vars))
			succSet := map[int]bool{}
			for _, v := range e.Succ[u] {
				succSet[v] = true
			}
			for v := 0; v < e.N; v++ {
				sv := IndexState(v, len(s.Vars))
				if s.HasEdge(su, sv) != succSet[v] {
					t.Fatalf("edge %d->%d mismatch", u, v)
				}
			}
		}
		// atoms match
		for _, atom := range e.AtomNames() {
			set, err := s.AtomSet(ctl.Atom(atom))
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < e.N; u++ {
				if s.Holds(set, IndexState(u, len(s.Vars))) != e.Labels[u][atom] {
					t.Fatalf("atom %s mismatch at state %d", atom, u)
				}
			}
		}
	}
}

func TestToExplicitRoundTrip(t *testing.T) {
	s := twoBitCounter(t)
	e, index, err := s.ToExplicit(100)
	if err != nil {
		t.Fatal(err)
	}
	if e.N != 4 {
		t.Fatalf("ToExplicit found %d states, want 4", e.N)
	}
	if len(e.Init) != 1 {
		t.Fatalf("init count %d", len(e.Init))
	}
	// the counter is a single 4-cycle
	for u := 0; u < e.N; u++ {
		if len(e.Succ[u]) != 1 {
			t.Fatalf("state %d has %d successors", u, len(e.Succ[u]))
		}
	}
	if len(index) != 4 {
		t.Fatal("index size wrong")
	}
}

func TestToExplicitLimit(t *testing.T) {
	s := twoBitCounter(t)
	if _, _, err := s.ToExplicit(2); err == nil {
		t.Fatal("limit should trigger")
	}
}

func TestRandomExplicitShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := RandomExplicit(r, 30, 3, []string{"a"}, 2, 0.2)
	if e.N != 30 || !e.IsTotal() || len(e.Fair) != 2 {
		t.Fatal("random structure malformed")
	}
	for _, fs := range e.Fair {
		any := false
		for _, b := range fs {
			any = any || b
		}
		if !any {
			t.Fatal("empty fairness set generated")
		}
	}
}
