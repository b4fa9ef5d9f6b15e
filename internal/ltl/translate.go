// Package ltl checks linear temporal logic formulas (G/F/X/U/R/W over
// propositional atoms, parsed by ctl.ParseLTL) through the tableau
// translation of a formula into a generalized Büchi automaton
// represented symbolically: one fresh state variable per elementary
// temporal subformula, a transition constraint per variable, and a
// fairness constraint per until-obligation. Checking M ⊨ φ then reduces
// to emptiness of the fair product M × A_¬φ, which the paper's fair-EG
// machinery (Section 5) decides and whose counterexamples the ring-walk
// generator (Section 6) extracts as fair lassos.
package ltl

import (
	"fmt"

	"repro/internal/ctl"
)

// This file implements the symbolic tableau construction for LTL
// (Clarke–Grumberg–Hamaguchi style). To check M ⊨ φ we build the
// tableau of ψ = ¬φ in negation normal form over the primitives
// {literal, ∧, ∨, X, U, R}:
//
//   - every X/U/R subformula of ψ is "elementary"; each gets one fresh
//     boolean state variable v_i whose value in a state encodes the
//     promise "X(elem_i) holds from the next state on" — for an X g
//     node the variable stands for the node itself;
//
//   - sat(h) maps each subformula h to a present-state condition over
//     model atoms and the v_i:
//       sat(X g)    = v_i
//       sat(g U h)  = sat(h) ∨ (sat(g) ∧ v_i)
//       sat(g R h)  = sat(h) ∧ (sat(g) ∨ v_i)
//
//   - the transition constraint per elementary i ties the promise to
//     the next state:  v_i  ↔  next(expansion_i), where expansion_i is
//     sat(g) for X g and sat(node) for U/R nodes (the self-reference
//     through v_i makes the system triangular, not circular);
//
//   - each U node contributes the generalized-Büchi fairness constraint
//     sat(h) ∨ ¬sat(g U h): on a fair path the until obligation cannot
//     be deferred forever.
//
// A path of M can be decorated with v_i values satisfying the tableau
// and all fairness constraints iff it satisfies ψ; so M has a ψ-path
// iff Init ∧ sat(ψ) intersects the fair-EG states of the product.

// nnf rewrites f (negated if neg) into negation normal form over the
// primitives {true, false, literal, ∧, ∨, X, U, R}. The derived
// operators are rewritten first:
//
//	G g ≡ false R g      F g ≡ true U g      g W h ≡ h R (g ∨ h)
//	g -> h ≡ ¬g ∨ h      g <-> h ≡ (g ∧ h) ∨ (¬g ∧ ¬h)
//
// and negation is pushed through the dualities ¬(g U h) = ¬g R ¬h,
// ¬(g R h) = ¬g U ¬h, ¬X g = X ¬g.
func nnf(f *ctl.Formula, neg bool) *ctl.Formula {
	switch f.Kind {
	case ctl.KTrue:
		if neg {
			return ctl.False()
		}
		return ctl.True()
	case ctl.KFalse:
		if neg {
			return ctl.True()
		}
		return ctl.False()
	case ctl.KAtom:
		if neg {
			return ctl.Not(f)
		}
		return f
	case ctl.KEq:
		if neg {
			return ctl.Neq(f.Name, f.Value)
		}
		return f
	case ctl.KNeq:
		if neg {
			return ctl.Eq(f.Name, f.Value)
		}
		return f
	case ctl.KNot:
		return nnf(f.L, !neg)
	case ctl.KAnd:
		if neg {
			return ctl.Or(nnf(f.L, true), nnf(f.R, true))
		}
		return ctl.And(nnf(f.L, false), nnf(f.R, false))
	case ctl.KOr:
		if neg {
			return ctl.And(nnf(f.L, true), nnf(f.R, true))
		}
		return ctl.Or(nnf(f.L, false), nnf(f.R, false))
	case ctl.KImp:
		return nnf(ctl.Or(ctl.Not(f.L), f.R), neg)
	case ctl.KIff:
		// (L ∧ R) ∨ (¬L ∧ ¬R); negation handled by the Or/And cases.
		return nnf(ctl.Or(ctl.And(f.L, f.R), ctl.And(ctl.Not(f.L), ctl.Not(f.R))), neg)
	case ctl.KX:
		return ctl.X(nnf(f.L, neg))
	case ctl.KU:
		if neg {
			return ctl.R(nnf(f.L, true), nnf(f.R, true))
		}
		return ctl.U(nnf(f.L, false), nnf(f.R, false))
	case ctl.KR:
		if neg {
			return ctl.U(nnf(f.L, true), nnf(f.R, true))
		}
		return ctl.R(nnf(f.L, false), nnf(f.R, false))
	case ctl.KW:
		// g W h ≡ h R (g ∨ h): the release form holds g∨h up to and
		// including the first h, or forever if h never occurs.
		return nnf(ctl.R(f.R, ctl.Or(f.L, f.R)), neg)
	case ctl.KG:
		return nnf(ctl.R(ctl.False(), f.L), neg)
	case ctl.KF:
		return nnf(ctl.U(ctl.True(), f.L), neg)
	default:
		panic(fmt.Sprintf("ltl: nnf: unexpected kind %v", f.Kind))
	}
}

// NNF returns f in negation normal form over {literal, ∧, ∨, X, U, R}.
func NNF(f *ctl.Formula) *ctl.Formula { return nnf(f, false) }

// Tableau is the symbolic generalized Büchi automaton for the negation
// of a specification. Formula is NNF(¬spec); Elem lists its elementary
// (X/U/R) subformulas in first-occurrence order, deduplicated
// structurally — Elem[i] corresponds to the i-th fresh product state
// variable.
type Tableau struct {
	Spec    *ctl.Formula // the original specification φ
	Formula *ctl.Formula // ψ = NNF(¬φ), the path property to search for
	Elem    []*ctl.Formula
	index   map[string]int
}

// Translate negates spec, normalizes it, and collects the elementary
// subformulas. The resulting Tableau drives both the symbolic product
// (Attach) and the explicit-state oracle via the generic Sat/
// ElemExpansion/FairTerms evaluators.
func Translate(spec *ctl.Formula) *Tableau {
	t := &Tableau{
		Spec:    spec,
		Formula: nnf(spec, true),
		index:   map[string]int{},
	}
	t.collect(t.Formula)
	return t
}

func (t *Tableau) collect(f *ctl.Formula) {
	if f == nil {
		return
	}
	switch f.Kind {
	case ctl.KX, ctl.KU, ctl.KR:
		key := f.String()
		if _, ok := t.index[key]; !ok {
			t.index[key] = len(t.Elem)
			t.Elem = append(t.Elem, f)
		}
	}
	t.collect(f.L)
	t.collect(f.R)
}

// ElemIndex returns the product-variable index of elementary formula f,
// which must be an X/U/R node collected by Translate.
func (t *Tableau) ElemIndex(f *ctl.Formula) int {
	i, ok := t.index[f.String()]
	if !ok {
		panic(fmt.Sprintf("ltl: %s is not an elementary subformula", f))
	}
	return i
}

// NumFair returns the number of generalized-Büchi fairness constraints
// (one per distinct U node).
func (t *Tableau) NumFair() int {
	n := 0
	for _, e := range t.Elem {
		if e.Kind == ctl.KU {
			n++
		}
	}
	return n
}

// Algebra abstracts the value domain the tableau is evaluated in: BDDs
// for the symbolic product, booleans for the explicit-state oracle.
// Sharing one evaluator between the two is what makes the differential
// and replay tests meaningful — the oracle cannot drift from the
// symbolic construction.
type Algebra[T any] struct {
	True  T
	False T
	Not   func(T) T
	And   func(T, T) T
	Or    func(T, T) T
	// Atom evaluates a literal: KAtom, KEq, KNeq, or KNot of one of
	// those (the formula is in NNF, so negation only wraps literals).
	Atom func(*ctl.Formula) (T, error)
	// Elem reads the product state variable for elementary index i in
	// the current state.
	Elem func(i int) T
}

// Sat evaluates the present-state characteristic condition sat(f) of a
// subformula of t.Formula.
func Sat[T any](t *Tableau, f *ctl.Formula, alg Algebra[T]) (T, error) {
	var zero T
	switch f.Kind {
	case ctl.KTrue:
		return alg.True, nil
	case ctl.KFalse:
		return alg.False, nil
	case ctl.KAtom, ctl.KEq, ctl.KNeq:
		return alg.Atom(f)
	case ctl.KNot:
		// NNF: the operand is a literal.
		v, err := alg.Atom(f.L)
		if err != nil {
			return zero, err
		}
		return alg.Not(v), nil
	case ctl.KAnd, ctl.KOr:
		l, err := Sat(t, f.L, alg)
		if err != nil {
			return zero, err
		}
		r, err := Sat(t, f.R, alg)
		if err != nil {
			return zero, err
		}
		if f.Kind == ctl.KAnd {
			return alg.And(l, r), nil
		}
		return alg.Or(l, r), nil
	case ctl.KX:
		return alg.Elem(t.ElemIndex(f)), nil
	case ctl.KU:
		// sat(h) ∨ (sat(g) ∧ v)
		h, err := Sat(t, f.R, alg)
		if err != nil {
			return zero, err
		}
		g, err := Sat(t, f.L, alg)
		if err != nil {
			return zero, err
		}
		return alg.Or(h, alg.And(g, alg.Elem(t.ElemIndex(f)))), nil
	case ctl.KR:
		// sat(h) ∧ (sat(g) ∨ v)
		h, err := Sat(t, f.R, alg)
		if err != nil {
			return zero, err
		}
		g, err := Sat(t, f.L, alg)
		if err != nil {
			return zero, err
		}
		return alg.And(h, alg.Or(g, alg.Elem(t.ElemIndex(f)))), nil
	default:
		return zero, fmt.Errorf("ltl: sat: unexpected kind %v in NNF formula", f.Kind)
	}
}

// ElemExpansion evaluates, in the *successor* state, the condition the
// promise variable v_i must equal: sat(g) for X g, and sat(node) for
// U/R nodes (whose expansion refers to their own v_i, read in the
// successor).
func ElemExpansion[T any](t *Tableau, i int, alg Algebra[T]) (T, error) {
	e := t.Elem[i]
	if e.Kind == ctl.KX {
		return Sat(t, e.L, alg)
	}
	return Sat(t, e, alg)
}

// FairTerms evaluates the generalized-Büchi fairness constraints, one
// per U node: sat(h) ∨ ¬sat(g U h). Results are paired with the
// originating formula for naming/diagnostics.
func FairTerms[T any](t *Tableau, alg Algebra[T]) ([]T, []*ctl.Formula, error) {
	var terms []T
	var nodes []*ctl.Formula
	for _, e := range t.Elem {
		if e.Kind != ctl.KU {
			continue
		}
		h, err := Sat(t, e.R, alg)
		if err != nil {
			return nil, nil, err
		}
		whole, err := Sat(t, e, alg)
		if err != nil {
			return nil, nil, err
		}
		terms = append(terms, alg.Or(h, alg.Not(whole)))
		nodes = append(nodes, e)
	}
	return terms, nodes, nil
}
