package core

import (
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/kripke"
)

// Trace validation. Every witness the generator produces can be checked
// against the model independently of how it was constructed; the tests
// and the experiment harness validate all traces this way.

// ValidatePath checks that consecutive states are transitions of the
// model and, for lassos, that the cycle closes.
func ValidatePath(s *kripke.Symbolic, tr *Trace) error {
	if len(tr.States) == 0 {
		return errors.New("core: empty trace")
	}
	for _, st := range tr.States {
		if len(st) != len(s.Vars) {
			return errors.New("core: state width mismatch")
		}
	}
	for i := 1; i < len(tr.States); i++ {
		if !s.HasEdge(tr.States[i-1], tr.States[i]) {
			return fmt.Errorf("core: missing transition %d -> %d: %s -> %s",
				i-1, i, s.FormatState(tr.States[i-1]), s.FormatState(tr.States[i]))
		}
	}
	if tr.IsLasso() {
		if tr.CycleStart >= len(tr.States) {
			return errors.New("core: cycle start out of range")
		}
		if !s.HasEdge(tr.Last(), tr.States[tr.CycleStart]) {
			return fmt.Errorf("core: cycle does not close: %s -> %s",
				s.FormatState(tr.Last()), s.FormatState(tr.States[tr.CycleStart]))
		}
		if tr.CycleLen() < 1 {
			return errors.New("core: trivial cycle")
		}
	}
	return nil
}

// ValidateEG checks that tr is a proper fair EG f witness: a closed
// lasso, every state satisfying f, and every fairness constraint of the
// structure satisfied somewhere on the cycle.
func ValidateEG(s *kripke.Symbolic, tr *Trace, f bdd.Ref) error {
	if err := ValidatePath(s, tr); err != nil {
		return err
	}
	if !tr.IsLasso() {
		return errors.New("core: EG witness must be a lasso")
	}
	for i, st := range tr.States {
		if !s.Holds(f, st) {
			return fmt.Errorf("core: state %d violates the EG invariant: %s", i, s.FormatState(st))
		}
	}
	for k, h := range s.Fair {
		hit := false
		for i := tr.CycleStart; i < len(tr.States); i++ {
			if s.Holds(h, tr.States[i]) {
				hit = true
				break
			}
		}
		if !hit {
			name := fmt.Sprintf("h%d", k)
			if k < len(s.FairNames) {
				name = s.FairNames[k]
			}
			return fmt.Errorf("core: fairness constraint %s not satisfied on the cycle", name)
		}
	}
	return nil
}

// ValidateEU checks that tr's finite prefix demonstrates E[f U g]: every
// state before the first g-state satisfies f and some state satisfies g.
// States after the first g-state are not examined.
func ValidateEU(s *kripke.Symbolic, tr *Trace, f, g bdd.Ref) error {
	if err := ValidatePath(s, tr); err != nil {
		return err
	}
	for i, st := range tr.States {
		if s.Holds(g, st) {
			return nil // states 0..i-1 were checked below on the way
		}
		if !s.Holds(f, st) {
			return fmt.Errorf("core: state %d satisfies neither f nor g: %s", i, s.FormatState(st))
		}
	}
	return errors.New("core: no state satisfies the until-target g")
}

// ValidateEX checks that tr demonstrates EX f: at least two states and
// the second satisfies f.
func ValidateEX(s *kripke.Symbolic, tr *Trace, f bdd.Ref) error {
	if err := ValidatePath(s, tr); err != nil {
		return err
	}
	if len(tr.States) < 2 {
		return errors.New("core: EX witness needs at least two states")
	}
	if !s.Holds(f, tr.States[1]) {
		return errors.New("core: successor state violates f")
	}
	return nil
}

// ValidateFairLasso checks that a lasso's cycle satisfies every fairness
// constraint of the structure.
func ValidateFairLasso(s *kripke.Symbolic, tr *Trace) error {
	return ValidateEG(s, tr, bdd.True)
}
