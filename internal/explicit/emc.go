package explicit

import (
	"fmt"
	"strings"

	"repro/internal/ctl"
	"repro/internal/kripke"
)

// hasValueLabel reports whether a state labels variable name with some
// "name=value" pair, identifying it as finite-domain rather than
// boolean for the purposes of the 0/1/true/false comparison fallback.
func hasValueLabel(labels map[string]bool, name string) bool {
	prefix := name + "="
	for k, v := range labels {
		if v && strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

// LabelAtom evaluates a literal (KAtom, KEq or KNeq) of either logic at
// a state of an explicit structure. Explicit structures label booleans
// by name and finite-domain values as "name=value"; booleans may be
// compared against 0/1/true/false. That fallback must not fire for a
// finite-domain variable (one carrying some "name=value" label at this
// state), else "x = 0" misreads as "!x" whenever x != 0.
func LabelAtom(e *kripke.Explicit, s int, lit *ctl.Formula) (bool, error) {
	switch lit.Kind {
	case ctl.KAtom:
		return e.Labels[s][lit.Name], nil
	case ctl.KEq, ctl.KNeq:
		v := e.Labels[s][lit.Name+"="+lit.Value]
		if !v && !hasValueLabel(e.Labels[s], lit.Name) {
			switch lit.Value {
			case "1", "true", "TRUE":
				v = e.Labels[s][lit.Name]
			case "0", "false", "FALSE":
				v = !e.Labels[s][lit.Name]
			}
		}
		if lit.Kind == ctl.KNeq {
			v = !v
		}
		return v, nil
	}
	return false, fmt.Errorf("explicit: non-literal %s in atom position", lit)
}

// Checker evaluates CTL formulas over an explicit structure by graph
// traversal, linear in the size of the graph and the length of the
// formula. Fairness constraints on the structure restrict the path
// quantifiers to fair paths, implemented with SCC analysis.
type Checker struct {
	E *kripke.Explicit

	pred [][]int
	fair []bool // states starting a fair path; nil until computed
}

// New creates an explicit checker.
func New(e *kripke.Explicit) *Checker {
	return &Checker{E: e, pred: e.Pred()}
}

// Check returns the satisfaction set of f (one bool per state).
func (c *Checker) Check(f *ctl.Formula) ([]bool, error) {
	return c.checkBasis(ctl.Existential(f))
}

// CheckInit reports whether all initial states satisfy f.
func (c *Checker) CheckInit(f *ctl.Formula) (bool, error) {
	set, err := c.Check(f)
	if err != nil {
		return false, err
	}
	for _, s := range c.E.Init {
		if !set[s] {
			return false, nil
		}
	}
	return true, nil
}

func (c *Checker) checkBasis(f *ctl.Formula) ([]bool, error) {
	n := c.E.N
	all := func(v bool) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	switch f.Kind {
	case ctl.KTrue:
		return all(true), nil
	case ctl.KFalse:
		return all(false), nil
	case ctl.KAtom, ctl.KEq, ctl.KNeq:
		out := make([]bool, n)
		for s := range out {
			v, err := LabelAtom(c.E, s, f)
			if err != nil {
				return nil, err
			}
			out[s] = v
		}
		return out, nil
	case ctl.KNot:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return nil, err
		}
		for i := range l {
			l[i] = !l[i]
		}
		return l, nil
	case ctl.KAnd, ctl.KOr:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return nil, err
		}
		r, err := c.checkBasis(f.R)
		if err != nil {
			return nil, err
		}
		for i := range l {
			if f.Kind == ctl.KAnd {
				l[i] = l[i] && r[i]
			} else {
				l[i] = l[i] || r[i]
			}
		}
		return l, nil
	case ctl.KEX:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return nil, err
		}
		return c.ex(c.andFair(l)), nil
	case ctl.KEU:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return nil, err
		}
		r, err := c.checkBasis(f.R)
		if err != nil {
			return nil, err
		}
		return c.eu(l, c.andFair(r)), nil
	case ctl.KEG:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return nil, err
		}
		if len(c.E.Fair) == 0 {
			return c.eg(l), nil
		}
		return c.fairEG(l), nil
	default:
		return nil, fmt.Errorf("explicit: formula not in existential basis: %s", f)
	}
}

// andFair intersects a set with the fair states when fairness applies.
func (c *Checker) andFair(set []bool) []bool {
	if len(c.E.Fair) == 0 {
		return set
	}
	fair := c.fairStates()
	out := make([]bool, len(set))
	for i := range set {
		out[i] = set[i] && fair[i]
	}
	return out
}

// fairStates computes (and caches) the states beginning a fair path:
// those that can reach an SCC intersecting every fairness constraint.
func (c *Checker) fairStates() []bool {
	if c.fair != nil {
		return c.fair
	}
	allTrue := make([]bool, c.E.N)
	for i := range allTrue {
		allTrue[i] = true
	}
	c.fair = c.fairEG(allTrue)
	return c.fair
}

// ex computes EX set.
func (c *Checker) ex(set []bool) []bool {
	out := make([]bool, c.E.N)
	for s := 0; s < c.E.N; s++ {
		for _, t := range c.E.Succ[s] {
			if set[t] {
				out[s] = true
				break
			}
		}
	}
	return out
}

// eu computes E[f U g] by backward reachability from g through f.
func (c *Checker) eu(f, g []bool) []bool {
	out := make([]bool, c.E.N)
	var queue []int
	for s := 0; s < c.E.N; s++ {
		if g[s] {
			out[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, s := range c.pred[t] {
			if !out[s] && f[s] {
				out[s] = true
				queue = append(queue, s)
			}
		}
	}
	return out
}

// eg computes EG f (no fairness): states that reach a nontrivial SCC of
// the f-subgraph while staying in f.
func (c *Checker) eg(f []bool) []bool {
	seeds := NontrivialSCCStates(c.E.Succ, f)
	return c.eu(f, seeds)
}

// fairEG computes EG f under the structure's fairness constraints:
// states that can reach, along f-states, a nontrivial SCC of the
// f-subgraph that intersects every fairness constraint.
func (c *Checker) fairEG(f []bool) []bool {
	comp, ncomp := SCC(c.E.Succ, f)
	size := make([]int, ncomp)
	selfLoop := make([]bool, ncomp)
	hits := make([][]bool, ncomp)
	for i := range hits {
		hits[i] = make([]bool, len(c.E.Fair))
	}
	for v, cv := range comp {
		if cv < 0 {
			continue
		}
		size[cv]++
		for _, w := range c.E.Succ[v] {
			if w == v {
				selfLoop[cv] = true
			}
		}
		for k, fs := range c.E.Fair {
			if fs[v] {
				hits[cv][k] = true
			}
		}
	}
	goodComp := make([]bool, ncomp)
	for i := 0; i < ncomp; i++ {
		if size[i] < 2 && !selfLoop[i] {
			continue
		}
		ok := true
		for _, h := range hits[i] {
			if !h {
				ok = false
				break
			}
		}
		goodComp[i] = ok
	}
	seeds := make([]bool, c.E.N)
	for v, cv := range comp {
		if cv >= 0 && goodComp[cv] {
			seeds[v] = true
		}
	}
	return c.eu(f, seeds)
}
