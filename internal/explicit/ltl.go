package explicit

import (
	"fmt"

	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/ltl"
)

// Explicit-state LTL: an independent oracle for the symbolic tableau
// product. EvalLasso decides φ on a concrete ultimately-periodic path
// by fixpoint iteration — the replay check for every symbolic lasso
// counterexample — and CheckLTL decides M ⊨ φ by building the explicit
// product with the very same tableau the symbolic checker compiles,
// sharing the ltl.Sat/ElemExpansion/FairTerms evaluators so the two
// implementations cannot drift apart silently.

// EvalLasso evaluates an arbitrary LTL formula (not necessarily in NNF)
// on the infinite path induced by a lasso of n positions whose position
// n-1 loops back to cycleStart. atom evaluates a literal (ctl.KAtom,
// KEq, KNeq) at a position. It returns the truth value at position 0.
func EvalLasso(f *ctl.Formula, n, cycleStart int, atom func(pos int, lit *ctl.Formula) (bool, error)) (bool, error) {
	if n <= 0 || cycleStart < 0 || cycleStart >= n {
		return false, fmt.Errorf("explicit: malformed lasso shape n=%d cycleStart=%d", n, cycleStart)
	}
	next := func(i int) int {
		if i == n-1 {
			return cycleStart
		}
		return i + 1
	}
	vals, err := evalLasso(f, n, next, atom)
	if err != nil {
		return false, err
	}
	return vals[0], nil
}

func evalLasso(f *ctl.Formula, n int, next func(int) int, atom func(int, *ctl.Formula) (bool, error)) ([]bool, error) {
	fill := func(v bool) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	binop := func(op func(a, b bool) bool) ([]bool, error) {
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		r, err := evalLasso(f.R, n, next, atom)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = op(l[i], r[i])
		}
		return l, nil
	}
	// fix iterates out[i] = step(out, i) in backward passes until stable.
	// Each pass only moves values monotonically (lfp: false→true from
	// init false; gfp: true→false from init true), so on a lasso of n
	// positions it stabilizes within n+1 passes.
	fix := func(init bool, step func(out []bool, i int) bool) []bool {
		out := fill(init)
		for {
			changed := false
			for i := n - 1; i >= 0; i-- {
				v := step(out, i)
				if v != out[i] {
					out[i] = v
					changed = true
				}
			}
			if !changed {
				return out
			}
		}
	}

	switch f.Kind {
	case ctl.KTrue:
		return fill(true), nil
	case ctl.KFalse:
		return fill(false), nil
	case ctl.KAtom, ctl.KEq, ctl.KNeq:
		out := make([]bool, n)
		for i := range out {
			v, err := atom(i, f)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case ctl.KNot:
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = !l[i]
		}
		return l, nil
	case ctl.KAnd:
		return binop(func(a, b bool) bool { return a && b })
	case ctl.KOr:
		return binop(func(a, b bool) bool { return a || b })
	case ctl.KImp:
		return binop(func(a, b bool) bool { return !a || b })
	case ctl.KIff:
		return binop(func(a, b bool) bool { return a == b })
	case ctl.KX:
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = l[next(i)]
		}
		return out, nil
	case ctl.KU: // least fixpoint of  r ∨ (l ∧ X self)
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		r, err := evalLasso(f.R, n, next, atom)
		if err != nil {
			return nil, err
		}
		return fix(false, func(out []bool, i int) bool {
			return r[i] || (l[i] && out[next(i)])
		}), nil
	case ctl.KW: // greatest fixpoint of the same functional as U
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		r, err := evalLasso(f.R, n, next, atom)
		if err != nil {
			return nil, err
		}
		return fix(true, func(out []bool, i int) bool {
			return r[i] || (l[i] && out[next(i)])
		}), nil
	case ctl.KR: // greatest fixpoint of  r ∧ (l ∨ X self)
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		r, err := evalLasso(f.R, n, next, atom)
		if err != nil {
			return nil, err
		}
		return fix(true, func(out []bool, i int) bool {
			return r[i] && (l[i] || out[next(i)])
		}), nil
	case ctl.KG:
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		return fix(true, func(out []bool, i int) bool {
			return l[i] && out[next(i)]
		}), nil
	case ctl.KF:
		l, err := evalLasso(f.L, n, next, atom)
		if err != nil {
			return nil, err
		}
		return fix(false, func(out []bool, i int) bool {
			return l[i] || out[next(i)]
		}), nil
	default:
		return nil, fmt.Errorf("explicit: EvalLasso: unexpected kind %v", f.Kind)
	}
}

// maxProductStates bounds the explicit product construction; the oracle
// is meant for small cross-validation models, not production checking.
const maxProductStates = 1 << 22

// CheckLTL decides e ⊨ spec (over the fair paths of e) by explicit
// construction of the product with the tableau of ¬spec. On violation
// it returns a fair lasso of *model* states whose induced path
// falsifies spec.
//
// The product state is u·2^k + w where u is the model state and w packs
// the k promise-variable bits. The tableau's transition constraints
// determine the predecessor's promise bits uniquely from the successor
// product state (w_i = expansion_i evaluated at the successor), so the
// product has exactly one edge (u,w(u′,v′)) → (u′,v′) per model edge
// u→u′ and successor decoration v′ — no constraint filtering needed.
func CheckLTL(e *kripke.Explicit, spec *ctl.Formula) (holds bool, cex *Lasso, err error) {
	t := ltl.Translate(spec)
	k := len(t.Elem)
	if k > 20 || e.N<<k > maxProductStates || e.N<<k <= 0 {
		return false, nil, fmt.Errorf("explicit: product too large (%d states × 2^%d decorations)", e.N, k)
	}

	algAt := func(u, w int) ltl.Algebra[bool] {
		return ltl.Algebra[bool]{
			True:  true,
			False: false,
			Not:   func(b bool) bool { return !b },
			And:   func(a, b bool) bool { return a && b },
			Or:    func(a, b bool) bool { return a || b },
			Atom:  func(lit *ctl.Formula) (bool, error) { return LabelAtom(e, u, lit) },
			Elem:  func(i int) bool { return w>>i&1 == 1 },
		}
	}

	p := kripke.NewExplicit(e.N << k)
	for u := 0; u < e.N; u++ {
		for _, u2 := range e.Succ[u] {
			for v2 := 0; v2 < 1<<k; v2++ {
				w := 0
				alg := algAt(u2, v2)
				for i := 0; i < k; i++ {
					b, err := ltl.ElemExpansion(t, i, alg)
					if err != nil {
						return false, nil, err
					}
					if b {
						w |= 1 << i
					}
				}
				p.AddEdge(u<<k|w, u2<<k|v2)
			}
		}
	}
	for _, u0 := range e.Init {
		for w := 0; w < 1<<k; w++ {
			p.AddInit(u0<<k | w)
		}
	}
	// Model fairness lifts pointwise; each tableau U node adds one
	// generalized-Büchi constraint.
	for fi, fs := range e.Fair {
		sel := make([]bool, p.N)
		for u := 0; u < e.N; u++ {
			if fs[u] {
				for w := 0; w < 1<<k; w++ {
					sel[u<<k|w] = true
				}
			}
		}
		p.AddFairSet(e.FairNames[fi], sel)
	}
	nfair := t.NumFair()
	if nfair > 0 {
		sels := make([][]bool, nfair)
		var names []string
		for u := 0; u < e.N; u++ {
			for w := 0; w < 1<<k; w++ {
				terms, nodes, err := ltl.FairTerms(t, algAt(u, w))
				if err != nil {
					return false, nil, err
				}
				for ti, tv := range terms {
					if sels[ti] == nil {
						sels[ti] = make([]bool, p.N)
					}
					if tv {
						sels[ti][u<<k|w] = true
					}
				}
				if names == nil {
					for i, node := range nodes {
						names = append(names, fmt.Sprintf("LTL#%d(%s)", i, node))
					}
				}
			}
		}
		for i, sel := range sels {
			p.AddFairSet(names[i], sel)
		}
	}

	pc := New(p)
	allTrue := make([]bool, p.N)
	for i := range allTrue {
		allTrue[i] = true
	}
	// Fair (or, without constraints, merely infinite) paths exist from
	// exactly the fairEG(true) states; the product is not total, so this
	// pruning is what discards inconsistent promise decorations.
	live := pc.fairEG(allTrue)

	bad := -1
	for _, p0 := range p.Init {
		if !live[p0] {
			continue
		}
		accept, err := ltl.Sat(t, t.Formula, algAt(p0>>k, p0&(1<<k-1)))
		if err != nil {
			return false, nil, err
		}
		if accept {
			bad = p0
			break
		}
	}
	if bad < 0 {
		return true, nil, nil
	}
	lasso, err := pc.FairEGWitness(allTrue, bad)
	if err != nil {
		return false, nil, fmt.Errorf("explicit: fair lasso extraction: %w", err)
	}
	proj := &Lasso{States: make([]int, len(lasso.States)), CycleStart: lasso.CycleStart}
	for i, s := range lasso.States {
		proj.States[i] = s >> k
	}
	return false, proj, nil
}
