package smv

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
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
// symbolic structure — its conjunctive partition (and, for process
// models, its disjunctive partition) simply contains extra clusters for
// the tableau promise variables, and its fairness constraints include
// the generalized-Büchi sets — so reordering, partitioned image
// computation, and disjunctive evaluation all apply unchanged.
//
// M ⊨ Spec iff the fair product is empty from Init ∧ Accept; a
// nonempty product yields a fair lasso whose model projection violates
// Spec (paper Section 6: the counterexample generator doubles as a
// witness generator for the tableau product).
type LTLProduct struct {
	*Compiled
	Spec     *ltl.Formula
	Source   string       // original LTLSPEC text
	Tableau  *ltl.Tableau // tableau of ¬Spec
	Accept   bdd.Ref      // sat(¬Spec): candidate initial product states
	ElemVars []int        // indices into S.Vars of the tableau variables
}

// ResolveLTLAtoms verifies that all atoms of an LTL formula name
// declared variables or DEFINEs of the module.
func resolveLTLAtoms(m *Module, f *ltl.Formula) error {
	names := map[string]bool{}
	for _, vd := range m.Vars {
		names[vd.Name] = true
	}
	for _, d := range m.Defines {
		names[d.Name] = true
	}
	for _, a := range ltl.Atoms(f) {
		if !names[a] {
			return fmt.Errorf("smv: LTLSPEC mentions unknown identifier %q", a)
		}
	}
	return nil
}

// ResolveLTLAtoms verifies that all atoms of an LTL formula resolve
// against this compiled module (returns the first error, if any).
func (c *Compiled) ResolveLTLAtoms(f *ltl.Formula) error {
	for _, a := range ltl.Atoms(f) {
		if c.Vars[a] == nil && c.defines[a] == nil {
			return fmt.Errorf("smv: LTLSPEC mentions unknown identifier %q", a)
		}
	}
	return nil
}

// CompileLTL compiles the module in product with the tableau of
// ¬spec. Each product owns a fresh BDD manager, so per-check settings
// (reordering, disjunctive evaluation, workers) are configured on the
// returned product's structure exactly as for a plain Compiled.
func CompileLTL(m *Module, spec *ltl.Formula, source string) (*LTLProduct, error) {
	return CompileLTLWith(m, spec, source, CompileOptions{})
}

// CompileLTLWith is CompileLTL with explicit engine options.
func CompileLTLWith(m *Module, spec *ltl.Formula, source string, opts CompileOptions) (*LTLProduct, error) {
	if err := resolveLTLAtoms(m, spec); err != nil {
		return nil, err
	}
	la := &ltlAttachment{tab: ltl.Translate(spec)}
	c, err := compile(m, la, opts)
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
	// Accept must survive GC and follow dynamic reordering.
	c.S.M.RegisterRefs(&p.Accept)
	return p, nil
}

// CompileLTLSource parses module source and compiles the product with
// one ad-hoc LTL specification (convenience for tests and cmd/smv
// -ltl).
func CompileLTLSource(src, spec string) (*LTLProduct, error) {
	return CompileLTLSourceWith(src, spec, CompileOptions{})
}

// CompileLTLSourceWith is CompileLTLSource with explicit engine options.
func CompileLTLSourceWith(src, spec string, opts CompileOptions) (*LTLProduct, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	f, err := ltl.Parse(spec)
	if err != nil {
		return nil, err
	}
	return CompileLTLWith(m, f, spec, opts)
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
	atom := ltl.AtomResolver(p.S)
	holds, err := explicit.EvalLasso(p.Spec, len(tr.States), tr.CycleStart,
		func(pos int, lit *ltl.Formula) (bool, error) {
			set, err := atom(lit)
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

// FormatLassoByVars renders a product lasso over the declared model
// variables (tableau bits are internal and hidden), marking the cycle
// start.
func (p *LTLProduct) FormatLassoByVars(tr *core.Trace) string {
	var b strings.Builder
	for i, st := range tr.States {
		mark := "  "
		if i == tr.CycleStart {
			mark = "↻ "
		}
		fmt.Fprintf(&b, "%s%2d: ", mark, i)
		p.writeStateByVars(&b, st)
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckLTLSpec is the one-call path used by tests and validation
// harnesses: compile the product, run the emptiness check, replay any
// counterexample, and release the checker. The returned trace (if any)
// remains decodable through the returned product.
func CheckLTLSpec(m *Module, spec *ltl.Formula, source string) (holds bool, p *LTLProduct, cex *core.Trace, err error) {
	p, err = CompileLTL(m, spec, source)
	if err != nil {
		return false, nil, nil, err
	}
	ch := mc.New(p.S)
	defer ch.Close()
	holds, cex, err = p.Check(ch)
	if err != nil {
		return false, nil, nil, err
	}
	if cex != nil {
		if err := p.ReplayCounterexample(cex); err != nil {
			return false, nil, nil, err
		}
	}
	return holds, p, cex, nil
}
