package core

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// WitnessEU constructs a witness for E[f U g] (under the structure's
// fairness constraints) starting at from: a finite path of f-states
// ending in a g-state that begins a fair path.
func (gen *Generator) WitnessEU(f, g bdd.Ref, from kripke.State) (*Trace, error) {
	s := gen.C.S

	// The descent starts in the first ring holding from and needs none
	// beyond it, so the ring computation stops there.
	rings, ok := gen.C.FairEUApproxUntil(f, g, func(ring bdd.Ref) bool { return s.Holds(ring, from) })
	if !ok {
		return nil, ErrNotSatisfied
	}
	// The returned rings are neither protected nor registered; pause
	// reordering while the descent walks them (image computations inside
	// the walk are reorder safe points otherwise).
	resume := s.M.PauseAutoReorder()
	defer resume()
	tr := newTrace(s, from)
	st := from
	for j := len(rings) - 2; j >= 0; j-- {
		nst := gen.succIn(st, rings[j])
		if nst == nil {
			return nil, fmt.Errorf("core: EU ring descent stuck at ring %d", j)
		}
		tr.States = append(tr.States, nst)
		gen.Stats.RingSteps++
		st = nst
	}
	tr.note(len(tr.States)-1, "until-target")
	return tr, nil
}

// WitnessEX constructs a witness for EX f (under fairness) from the
// given state: one step to an f-state beginning a fair path.
func (gen *Generator) WitnessEX(f bdd.Ref, from kripke.State) (*Trace, error) {
	s := gen.C.S
	// Fair() may run a fair-EG fixpoint and reorder; keep f registered
	// across it, then pause for the single-step walk.
	id := s.M.RegisterRefs(&f)
	fairSet := gen.C.Fair()
	s.M.Unregister(id)
	resume := s.M.PauseAutoReorder()
	defer resume()
	target := s.M.And(f, fairSet)
	next := gen.succIn(from, target)
	if next == nil {
		return nil, ErrNotSatisfied
	}
	tr := newTrace(s, from, next)
	tr.note(1, "next-target")
	return tr, nil
}

// Witness produces a demonstration trace for a CTL formula that holds at
// the given state: the spine of its explanation tree (ExplainTree)
// flattened into one path. Following the spine from the root:
//
//   - propositional formulas: the single state;
//   - EX g: one step to a successor satisfying g, then g's witness;
//   - E[f U g]: a ring walk to the nearest g-state, then g's witness;
//   - EG g: a fair lasso of g-states (no recursion into g — the lasso
//     itself is the demonstration);
//   - f ∧ g: a witness of the temporal conjunct (the propositional one
//     is noted); if both conjuncts are temporal the first is followed;
//   - f ∨ g: a witness of whichever disjunct holds;
//   - negations of temporal operators: the single state (set-level
//     justification; no path exhibits a universal fact).
//
// This mirrors what the SMV implementation does: a linear trace that a
// human can follow, not a full tree-shaped proof.
func (gen *Generator) Witness(f *ctl.Formula, from kripke.State) (*Trace, error) {
	n, err := gen.ExplainTree(f, from)
	if err != nil {
		return nil, err
	}
	return n.spineTrace(gen.C.S), nil
}

// Counterexample produces a counterexample trace for a CTL formula that
// fails at the given state: a witness for its negation (the duality of
// Section 6).
func (gen *Generator) Counterexample(f *ctl.Formula, from kripke.State) (*Trace, error) {
	return gen.Witness(ctl.Not(f), from)
}

// CounterexampleInit checks f at the initial states; when it fails, it
// returns a counterexample from some failing initial state. The boolean
// reports whether the property holds.
func (gen *Generator) CounterexampleInit(f *ctl.Formula) (bool, *Trace, error) {
	set, err := gen.C.Check(f)
	if err != nil {
		return false, nil, err
	}
	s := gen.C.S
	bad := s.M.Diff(s.Init, set)
	if bad == bdd.False {
		return true, nil, nil
	}
	start := s.PickState(bad)
	tr, err := gen.Counterexample(f, start)
	if err != nil {
		return false, nil, err
	}
	return false, tr, nil
}
