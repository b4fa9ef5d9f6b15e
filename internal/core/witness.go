package core

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// WitnessEU constructs a witness for E[f U g] (under the structure's
// fairness constraints) starting at from: a finite path of f-states
// ending in a g-state that begins a fair path. If extend is true the
// witness is extended from that state into a full fair lasso (witness
// for EG true), as described at the end of Section 6; otherwise the
// finite prefix is returned.
func (gen *Generator) WitnessEU(f, g bdd.Ref, from kripke.State, extend bool) (*Trace, error) {
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
	tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	tr.States = append(tr.States, from)
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

	if extend && len(s.Fair) > 0 {
		if err := gen.extendFair(tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// WitnessEX constructs a witness for EX f (under fairness) from the
// given state: one step to an f-state beginning a fair path, optionally
// extended to a fair lasso.
func (gen *Generator) WitnessEX(f bdd.Ref, from kripke.State, extend bool) (*Trace, error) {
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
	tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	tr.States = append(tr.States, from, next)
	tr.note(1, "next-target")
	if extend && len(s.Fair) > 0 {
		if err := gen.extendFair(tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// extendFair splices a fair EG-true lasso onto the end of a finite
// trace, turning it into an infinite fair path demonstration.
func (gen *Generator) extendFair(tr *Trace) error {
	last := tr.Last()
	suffix, err := gen.WitnessEG(bdd.True, last)
	if err != nil {
		return fmt.Errorf("core: extending to fair path: %w", err)
	}
	base := len(tr.States) - 1 // suffix state 0 == last
	tr.States = append(tr.States, suffix.States[1:]...)
	tr.CycleStart = base + suffix.CycleStart
	for h, idx := range suffix.FairHits {
		tr.FairHits[h] = base + idx
	}
	for i, n := range suffix.Notes {
		if n != "" && i > 0 {
			tr.note(base+i, n)
		}
	}
	return nil
}

// Witness produces a demonstration trace for a CTL formula that holds at
// the given state. The formula is rewritten to the existential basis;
// the trace is assembled recursively:
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
	basis := ctl.PushNegations(ctl.Existential(f))
	set, err := gen.C.Check(basis)
	if err != nil {
		return nil, err
	}
	if !gen.C.S.Holds(set, from) {
		return nil, ErrNotSatisfied
	}
	return gen.explain(basis, from)
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

// explain builds the trace for a basis formula known to hold at from.
func (gen *Generator) explain(f *ctl.Formula, from kripke.State) (*Trace, error) {
	s := gen.C.S
	switch f.Kind {
	case ctl.KTrue, ctl.KAtom, ctl.KEq, ctl.KNeq:
		tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
		tr.States = append(tr.States, from)
		tr.note(0, f.String())
		return tr, nil
	case ctl.KFalse:
		return nil, ErrNotSatisfied
	case ctl.KNot:
		// ¬(temporal) or negative literal: set-level fact, single state.
		tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
		tr.States = append(tr.States, from)
		tr.note(0, f.String())
		return tr, nil
	case ctl.KAnd:
		lTemp := !ctl.IsPropositional(f.L)
		rTemp := !ctl.IsPropositional(f.R)
		pick := f.L
		if !lTemp && rTemp {
			pick = f.R
		}
		tr, err := gen.explain(pick, from)
		if err != nil {
			return nil, err
		}
		tr.note(0, f.String())
		return tr, nil
	case ctl.KOr:
		lset, err := gen.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		if s.Holds(lset, from) {
			return gen.explain(f.L, from)
		}
		return gen.explain(f.R, from)
	case ctl.KEX:
		inner, err := gen.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		tr, err := gen.WitnessEX(inner, from, false)
		if err != nil {
			return nil, err
		}
		return gen.continueAt(tr, f.L)
	case ctl.KEU:
		lset, err := gen.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		rset, err := gen.C.Check(f.R)
		if err != nil {
			return nil, err
		}
		tr, err := gen.WitnessEU(lset, rset, from, false)
		if err != nil {
			return nil, err
		}
		return gen.continueAt(tr, f.R)
	case ctl.KEG:
		inner, err := gen.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		return gen.WitnessEG(inner, from)
	default:
		return nil, fmt.Errorf("core: explain on non-basis formula %s", f)
	}
}

// continueAt recursively explains the sub-obligation g at the final
// state of tr and splices the resulting trace on. If g's witness is a
// single state the trace is merely annotated.
func (gen *Generator) continueAt(tr *Trace, g *ctl.Formula) (*Trace, error) {
	if ctl.IsPropositional(g) {
		tr.note(len(tr.States)-1, g.String())
		return tr, nil
	}
	cont, err := gen.explain(g, tr.Last())
	if err != nil {
		return nil, err
	}
	base := len(tr.States) - 1
	tr.States = append(tr.States, cont.States[1:]...)
	if cont.CycleStart >= 0 {
		tr.CycleStart = base + cont.CycleStart
	}
	for h, idx := range cont.FairHits {
		tr.FairHits[h] = base + idx
	}
	for i, n := range cont.Notes {
		if n != "" {
			tr.note(base+i, n)
		}
	}
	return tr, nil
}
