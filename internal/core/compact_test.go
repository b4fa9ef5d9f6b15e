package core

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuit"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// arbiterModel compiles the Seitz arbiter for the compaction test.
func arbiterModel(t *testing.T) *kripke.Symbolic {
	t.Helper()
	s, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompactPrefixShortcut(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 plus the shortcut 0 -> 3; 3 -> 3. A trace that
	// took the long way must compact to 0 -> 3.
	e := kripke.NewExplicit(4)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 3)
	e.AddEdge(0, 3)
	e.AddEdge(3, 3)
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	for _, idx := range []int{0, 1, 2, 3} {
		tr.States = append(tr.States, stateOf(s, idx))
	}
	removed := Compact(s, tr)
	if removed != 2 {
		t.Fatalf("removed %d states, want 2\n%s", removed, tr)
	}
	if tr.Len() != 2 {
		t.Fatalf("compacted length %d, want 2", tr.Len())
	}
	if err := ValidatePath(s, tr); err != nil {
		t.Fatalf("compacted trace invalid: %v", err)
	}
}

func TestCompactCyclePreservesFairness(t *testing.T) {
	// Cycle 0 -> 1 -> 2 -> 0 with shortcut 0 -> 2. Fairness at state 1:
	// the shortcut would drop the only fair state, so compaction must
	// refuse it.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddEdge(0, 2)
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, true, false})
	s := kripke.FromExplicit(e)
	tr := &Trace{S: s, CycleStart: 0, FairHits: map[int]int{0: 1}}
	for _, idx := range []int{0, 1, 2} {
		tr.States = append(tr.States, stateOf(s, idx))
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("setup: %v", err)
	}
	removed := Compact(s, tr)
	if removed != 0 {
		t.Fatalf("compaction removed %d states and broke fairness:\n%s", removed, tr)
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("trace invalid after compaction: %v", err)
	}
}

func TestCompactCycleShortcutTaken(t *testing.T) {
	// Same shape but fairness at state 2: the shortcut 0 -> 2 may drop
	// state 1.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddEdge(0, 2)
	e.AddInit(0)
	e.AddFairSet("h", []bool{false, false, true})
	s := kripke.FromExplicit(e)
	tr := &Trace{S: s, CycleStart: 0, FairHits: map[int]int{0: 2}}
	for _, idx := range []int{0, 1, 2} {
		tr.States = append(tr.States, stateOf(s, idx))
	}
	removed := Compact(s, tr)
	if removed != 1 {
		t.Fatalf("removed %d, want 1\n%s", removed, tr)
	}
	if err := ValidateEG(s, tr, bdd.True); err != nil {
		t.Fatalf("invalid after compaction: %v\n%s", err, tr)
	}
}

func TestCompactTailTrim(t *testing.T) {
	// Cycle 0 -> 1 -> 2 -> 1 represented as [0, 1, 2] with cycle start
	// 1; state 2's successor set also contains 1 and 1 -> 1 exists: a
	// self-loop at 1 suffices if fairness allows.
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 1)
	e.AddInit(0)
	s := kripke.FromExplicit(e)
	tr := &Trace{S: s, CycleStart: 1, FairHits: map[int]int{}}
	for _, idx := range []int{0, 1, 2} {
		tr.States = append(tr.States, stateOf(s, idx))
	}
	removed := Compact(s, tr)
	if removed != 1 {
		t.Fatalf("removed %d, want 1 (tail trim)\n%s", removed, tr)
	}
	if err := ValidatePath(s, tr); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if tr.CycleLen() != 1 {
		t.Fatalf("cycle length %d, want 1", tr.CycleLen())
	}
}

// TestCompactRandomStillValid: compaction never invalidates a witness.
func TestCompactRandomStillValid(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	totalRemoved := 0
	for trial := 0; trial < 40; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(10), 3, nil, 1+trial%3, 0.2)
		s := kripke.FromExplicit(e)
		g := NewGenerator(mc.New(s))
		start := kripke.IndexState(e.Init[0], len(s.Vars))
		if !s.Holds(g.C.Fair(), start) {
			continue
		}
		tr, err := g.WitnessEG(bdd.True, start)
		if err != nil {
			t.Fatal(err)
		}
		before := tr.Len()
		removed := Compact(s, tr)
		totalRemoved += removed
		if tr.Len() != before-removed {
			t.Fatalf("length bookkeeping off: %d -> %d (removed %d)", before, tr.Len(), removed)
		}
		if err := ValidateEG(s, tr, bdd.True); err != nil {
			t.Fatalf("trial %d: invalid after compaction: %v\n%s", trial, err, tr)
		}
	}
	t.Logf("total states removed across trials: %d", totalRemoved)
}

// TestCompactArbiterCounterexample: compaction on the real case study.
func TestCompactArbiterCounterexample(t *testing.T) {
	s := arbiterModel(t)
	gen := NewGenerator(mc.New(s))
	_, tr, err := gen.CounterexampleInit(ctl.MustParse("AG (tr1 -> AF ta1)"))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Len()
	removed := Compact(s, tr)
	if err := ValidatePath(s, tr); err != nil {
		t.Fatalf("invalid after compaction: %v", err)
	}
	// fairness on the cycle must survive
	for k, h := range s.Fair {
		hit := false
		for i := tr.CycleStart; i < len(tr.States); i++ {
			if s.Holds(h, tr.States[i]) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("fairness constraint %d lost in compaction", k)
		}
	}
	// the violation state (tr1 & !ta1) must survive compaction
	tr1Set, _ := s.AtomSet(ctl.Atom("tr1"))
	ta1Set, _ := s.AtomSet(ctl.Atom("ta1"))
	sawViolation := false
	for _, st := range tr.States {
		if s.Holds(tr1Set, st) && !s.Holds(ta1Set, st) {
			sawViolation = true
			break
		}
	}
	if !sawViolation {
		t.Fatalf("compaction removed the violation state:\n%s", tr)
	}
	t.Logf("arbiter counterexample: %d -> %d states (removed %d)", before, tr.Len(), removed)
}
