package smv

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explicit"
	"repro/internal/ltl"
	"repro/internal/mc"
)

// ltlAttachment carries a tableau through compile (see compile.go): the
// compile engine fills in the reserved state-variable indices and the
// attached symbolic form.
type ltlAttachment struct {
	tab      *ltl.Tableau
	elemVars []int         // indices into S.Vars reserved for the tableau
	attached *ltl.Attached // filled after atom registration
}

// LTLProduct is a module compiled in product with the Büchi tableau of
// a specification's negation. The underlying Compiled is a normal
// symbolic structure — its partition (conjunctive, or for process
// models disjunctive) simply contains extra clusters for the tableau
// promise variables, and its fairness constraints include the
// generalized-Büchi sets — so reordering and partitioned image
// computation apply unchanged.
//
// M ⊨ Spec iff the fair product is empty from Init ∧ Accept; a
// nonempty product yields a fair lasso whose model projection violates
// Spec (paper Section 6: the counterexample generator doubles as a
// witness generator for the tableau product).
type LTLProduct struct {
	*Compiled
	Spec     *ctl.Formula
	Source   string       // original LTLSPEC text
	Tableau  *ltl.Tableau // tableau of ¬Spec
	Accept   bdd.Ref      // sat(¬Spec): candidate initial product states
	ElemVars []int        // indices into S.Vars of the tableau variables
}

// Product compiles c's module in product with the tableau of ¬spec,
// under c's Config. Each product owns a fresh BDD manager: its tableau
// variables and fairness sets are per-formula.
func (c *Compiled) Product(spec *ctl.Formula, source string) (*LTLProduct, error) {
	return product(c.Module, spec, source, c.cfg)
}

// CompileLTL compiles the module in product with the tableau of ¬spec
// under the zero Config.
//
// Deprecated: use (*Compiled).Product. CompileLTL remains only because
// perfbench calls it.
func CompileLTL(m *Module, spec *ctl.Formula, source string) (*LTLProduct, error) {
	return product(m, spec, source, Config{})
}

func product(m *Module, spec *ctl.Formula, source string, cfg Config) (*LTLProduct, error) {
	la := &ltlAttachment{tab: ltl.Translate(spec)}
	c, err := compile(m, la, cfg)
	if err != nil {
		return nil, err
	}
	p := &LTLProduct{
		Compiled: c,
		Spec:     spec,
		Source:   source,
		Tableau:  la.tab,
		Accept:   la.attached.Accept,
		ElemVars: la.elemVars,
	}
	// Accept must survive collections and sifts.
	c.S.M.Protect(p.Accept)
	return p, nil
}

// Check decides M ⊨ Spec as emptiness of the fair product, using a
// checker bound to the product's structure. On violation it extracts a
// fair lasso through the ring-walk generator; the trace is over product
// states (model bits first, tableau bits last).
func (p *LTLProduct) Check(ch *mc.Checker) (holds bool, cex *core.Trace, err error) {
	empty, start := ch.FairEmptiness(p.Accept)
	if empty {
		return true, nil, nil
	}
	gen := core.NewGenerator(ch)
	tr, err := gen.WitnessEG(bdd.True, start)
	if err != nil {
		return false, nil, err
	}
	if !tr.IsLasso() {
		return false, nil, fmt.Errorf("smv: LTL counterexample is not a lasso")
	}
	return false, tr, nil
}

// ReplayCounterexample replays the model projection of a product lasso
// against the LTL semantics of the original specification and errors
// unless the induced path falsifies it. This is the independent check
// that the tableau product, the fair fixpoint, and the ring-walk
// generator together produced a genuine counterexample.
func (p *LTLProduct) ReplayCounterexample(tr *core.Trace) error {
	if !tr.IsLasso() {
		return fmt.Errorf("smv: replay requires a lasso trace")
	}
	holds, err := explicit.EvalLasso(p.Spec, len(tr.States), tr.CycleStart,
		func(pos int, lit *ctl.Formula) (bool, error) {
			set, err := p.S.AtomSet(lit)
			if err != nil {
				return false, err
			}
			return p.S.Holds(set, tr.States[pos]), nil
		})
	if err != nil {
		return err
	}
	if holds {
		return fmt.Errorf("smv: counterexample path satisfies %s", p.Spec)
	}
	return nil
}
