package mc

import (
	"repro/internal/bdd"
	"repro/internal/kripke"
)

// FairEmptiness decides language emptiness of the structure viewed as a
// fair automaton: is there an initial state in seed from which a fair
// infinite path starts? This is the decision procedure for LTL checking
// via the tableau product — seed is sat(¬φ), and a non-empty result is
// a counterexample start state to hand to the fair-EG witness
// generator.
//
// Tableau products are deliberately not total: a state whose promise
// variables are unsatisfiable has no successor at all. Checker.Fair
// returns True when the structure declares no fairness constraints
// (correct only under the CTL totality assumption), so with no
// constraints the liveness test falls back to plain EG true — the
// states with some infinite continuation — which prunes dead-ended
// promise states.
func (c *Checker) FairEmptiness(seed bdd.Ref) (empty bool, start kripke.State) {
	m := c.S.M
	id := m.RegisterRefs(&seed)
	defer m.Unregister(id)

	var live bdd.Ref
	if len(c.S.Fair) > 0 {
		live = c.Fair()
	} else {
		live = c.EG(bdd.True)
		c.holdEG(bdd.True, live) // the seed of the lasso's FairEG(true)
	}
	bad := m.And(m.And(c.S.Init, seed), live)
	if bad == bdd.False {
		return true, nil
	}
	return false, c.S.PickState(bad)
}
