package ltl

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Attached is the symbolic form of a tableau wired into a particular
// structure: the acceptance set sat(ψ) over current-state variables,
// one transition-relation cluster per elementary subformula, and the
// generalized-Büchi fairness sets. The caller owns protection and
// reorder registration of the returned Refs.
type Attached struct {
	Accept    bdd.Ref   // sat(ψ): product states whose runs may satisfy ψ
	Clusters  []bdd.Ref // v_i ↔ next(expansion_i), one per Elem
	Fair      []bdd.Ref // sat(h) ∨ ¬sat(gUh), one per U node
	FairNames []string
}

// Attach builds the symbolic tableau of t over the structure s, whose
// state variables elemVars[i] have been reserved for the elementary
// subformulas. Each cluster constrains one promise variable against the
// next-state expansion:
//
//	v_i ↔ (expansion_i)[v := v′]
//
// and is intended to join the structure's conjunctive transition
// partition, so the product flows through the same early-quantified
// (and, with disjuncts, Shannon-expanded) image paths as the model
// relation itself. The product is deliberately not total: states whose
// promises are unsatisfiable dead-end, and the fair-EG fixpoint prunes
// them because they have no infinite continuation.
func Attach(t *Tableau, s *kripke.Symbolic, elemVars []int) (*Attached, error) {
	if len(elemVars) != len(t.Elem) {
		return nil, fmt.Errorf("ltl: %d tableau variables reserved for %d elementary subformulas",
			len(elemVars), len(t.Elem))
	}
	m := s.M
	alg := Algebra[bdd.Ref]{
		True:  bdd.True,
		False: bdd.False,
		Not:   m.Not,
		And:   m.And,
		Or:    m.Or,
		// Literals resolve as CTL atoms do, so both logics read
		// identical labelings (DEFINEs included).
		Atom: s.AtomSet,
		Elem: func(i int) bdd.Ref { return m.Var(s.Vars[elemVars[i]].Cur) },
	}

	a := &Attached{}
	accept, err := Sat(t, t.Formula, alg)
	if err != nil {
		return nil, err
	}
	a.Accept = accept

	for i := range t.Elem {
		exp, err := ElemExpansion(t, i, alg)
		if err != nil {
			return nil, err
		}
		v := m.Var(s.Vars[elemVars[i]].Cur)
		a.Clusters = append(a.Clusters, m.Eq(v, s.ToNext(exp)))
	}

	terms, nodes, err := FairTerms(t, alg)
	if err != nil {
		return nil, err
	}
	for i, term := range terms {
		a.Fair = append(a.Fair, term)
		a.FairNames = append(a.FairNames, fmt.Sprintf("LTL#%d(%s)", i, nodes[i]))
	}
	return a, nil
}

// ExplicitProduct is the symbolic fair product of an explicit structure
// with the tableau of a specification's negation — the harness the fuzz
// and cross-validation tests check the SMV-level product against.
type ExplicitProduct struct {
	S        *kripke.Symbolic
	T        *Tableau
	Accept   bdd.Ref
	ElemVars []int // indices into S.Vars of the tableau variables
	ModelLen int   // number of index bits; State[:ModelLen] is the model part
}

// ProductFromExplicit encodes e symbolically (index bits b0..), appends
// one tableau variable _ltl{i} per elementary subformula of ¬spec, and
// installs the tableau clusters and fairness constraints alongside the
// model's.
func ProductFromExplicit(e *kripke.Explicit, spec *ctl.Formula) (*ExplicitProduct, error) {
	t := Translate(spec)
	extra := make([]string, len(t.Elem))
	for i := range extra {
		extra[i] = fmt.Sprintf("_ltl%d", i)
	}
	b := kripke.FromExplicitBuilder(e, extra)
	nbits := kripke.IndexBits(e.N)
	elemVars := make([]int, len(t.Elem))
	for i := range elemVars {
		elemVars[i] = nbits + i
	}
	a, err := Attach(t, b.S, elemVars)
	if err != nil {
		return nil, err
	}
	for _, c := range a.Clusters {
		b.ConstrainTrans(c)
	}
	for i, set := range a.Fair {
		b.AddFairness(a.FairNames[i], set)
	}
	s := b.Finish()
	return &ExplicitProduct{
		S:        s,
		T:        t,
		Accept:   s.M.Protect(a.Accept),
		ElemVars: elemVars,
		ModelLen: nbits,
	}, nil
}
