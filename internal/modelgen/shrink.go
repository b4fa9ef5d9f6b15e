package modelgen

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/smv"
)

// clone deep-copies the model so the shrinker can mutate candidates
// freely.
func (m *Model) clone() *Model {
	c := &Model{Seed: m.Seed, Token: m.Token}
	for _, v := range m.Vars {
		vv := *v
		vv.Enum = append([]string(nil), v.Enum...)
		c.Vars = append(c.Vars, &vv)
	}
	for _, a := range m.Assigns {
		if a == nil {
			c.Assigns = append(c.Assigns, nil)
			continue
		}
		aa := &Assign{Var: a.Var}
		if a.Init != nil {
			iv := *a.Init
			aa.Init = &iv
		}
		aa.Arms = append([]Arm(nil), a.Arms...)
		c.Assigns = append(c.Assigns, aa)
	}
	c.Trans = append([]Expr(nil), m.Trans...)
	c.Fair = append([]Expr(nil), m.Fair...)
	for _, p := range m.Procs {
		pp := *p
		pp.LocalVals = append([]string(nil), p.LocalVals...)
		pp.Arms = append([]Arm(nil), p.Arms...)
		pp.TokenArms = append([]Arm(nil), p.TokenArms...)
		c.Procs = append(c.Procs, &pp)
	}
	c.CTL = append([]Spec(nil), m.CTL...)
	c.LTL = append([]Spec(nil), m.LTL...)
	return c
}

// stillFailing is the shrinker's predicate: the candidate must both
// compile and still trip CheckModel. A candidate whose deletion broke
// compilation is rejected, never reported.
func stillFailing(m *Model) bool {
	src := m.Source()
	if _, err := smv.CompileSource(src, smv.Config{}); err != nil {
		return false
	}
	return CheckModel(src) != nil
}

// Shrink reduces a failing model to a locally minimal reproducer:
// repeatedly delete specifications, fairness constraints, TRANS
// constraints, process instances, and variables (cascading through the
// per-element dependency sets) as long as the divergence persists.
// The input model is not modified.
func Shrink(m *Model) *Model {
	cur := m.clone()
	for changed := true; changed; {
		changed = false
		// Cheapest first: specs narrow the failure to one formula.
		for i := 0; i < len(cur.LTL); i++ {
			cand := cur.clone()
			cand.LTL = append(cand.LTL[:i], cand.LTL[i+1:]...)
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.CTL); i++ {
			cand := cur.clone()
			cand.CTL = append(cand.CTL[:i], cand.CTL[i+1:]...)
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Fair); i++ {
			cand := cur.clone()
			cand.Fair = append(cand.Fair[:i], cand.Fair[i+1:]...)
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Trans); i++ {
			cand := cur.clone()
			cand.Trans = append(cand.Trans[:i], cand.Trans[i+1:]...)
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Procs); i++ {
			cand := cur.clone()
			removed := cand.Procs[i]
			cand.Procs = append(cand.Procs[:i], cand.Procs[i+1:]...)
			cand.dropUses(removed.Local())
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur.Vars); i++ {
			v := cur.Vars[i]
			if v.Name == cur.Token && len(cur.Procs) > 0 {
				continue // processes reference the token; drop them first
			}
			cand := cur.clone()
			cand.Vars = append(cand.Vars[:i], cand.Vars[i+1:]...)
			cand.Assigns = append(cand.Assigns[:i], cand.Assigns[i+1:]...)
			cand.dropUses(v.Name)
			if stillFailing(cand) {
				cur, changed = cand, true
				i--
			}
		}
	}
	return cur
}

// dropUses removes every element (spec, fairness, TRANS, case arm)
// whose dependency set mentions name. Default TRUE arms only ever use
// their own target, so cases stay total.
func (m *Model) dropUses(name string) {
	filterSpecs := func(in []Spec) []Spec {
		out := in[:0]
		for _, s := range in {
			if !s.Uses[name] {
				out = append(out, s)
			}
		}
		return out
	}
	m.CTL = filterSpecs(m.CTL)
	m.LTL = filterSpecs(m.LTL)
	filterExprs := func(in []Expr) []Expr {
		out := in[:0]
		for _, e := range in {
			if !e.Uses[name] {
				out = append(out, e)
			}
		}
		return out
	}
	m.Trans = filterExprs(m.Trans)
	m.Fair = filterExprs(m.Fair)
	filterArms := func(in []Arm) []Arm {
		out := in[:0]
		for _, a := range in {
			if !a.Guard.Uses[name] && !a.Value.Uses[name] {
				out = append(out, a)
			}
		}
		return out
	}
	for _, a := range m.Assigns {
		if a != nil {
			a.Arms = filterArms(a.Arms)
		}
	}
	for _, p := range m.Procs {
		p.Arms = filterArms(p.Arms)
		p.TokenArms = filterArms(p.TokenArms)
	}
}

// WriteReproducer shrinks a failing model and writes the minimal
// source to dir as an .smv file named after the seed, returning the
// path. The header records the divergence so the file is actionable
// on its own.
func WriteReproducer(m *Model, dir string) (string, error) {
	small := Shrink(m)
	div := CheckModel(small.Source())
	if div == nil {
		// Shrinking is best-effort; if the minimal candidate no longer
		// fails (flaky divergence), keep the original.
		small = m
		div = CheckModel(small.Source())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("repro_seed%d.smv", m.Seed))
	src := fmt.Sprintf("-- modelgen reproducer, seed %d\n-- divergence: %v\n%s", m.Seed, div, small.Source())
	return path, os.WriteFile(path, []byte(src), 0o644)
}
