package kripke

import (
	"strconv"

	"repro/internal/bdd"
)

// Disjunctively partitioned transition relations for asynchronous
// interleaving models. Where the conjunctive partition (partition.go)
// factors a synchronous relation R = ⋀ᵢ Cᵢ, an interleaved model is
// naturally a union of per-process step relations
//
//	R(v,v′) = ⋁ᵢ Tᵢ(v,v′)
//
// (each Tᵢ: "process i takes a step, everything it does not drive is
// framed"), and the image distributes over the union:
//
//	Image(S) = ⋃ᵢ ∃v.(S ∧ Tᵢ)
//
// Each component gets its own quantification cubes: variables outside
// Tᵢ's support are quantified from the argument *before* the relational
// product (∃x.(S ∧ T) = (∃x.S) ∧ T when x ∉ sup(T)), shrinking the
// operand AndExists actually sees. Components are independent — no
// chain threads an accumulator through them — so each product runs on
// the one manager, sharing its AndExists cache, and the results are
// OR-merged.
//
// Reachability additionally tracks a per-component frontier: fed[i] is
// the set of states already expanded through component i, so a round
// only feeds each component the states it has not seen. The components
// chain — states discovered by component i feed component i+1 within
// the same round.

// component is one disjunct Tᵢ with its precomputed quantification
// cubes for both image directions.
type component struct {
	rel  bdd.Ref
	name string

	imgCube bdd.Ref // current-state vars in sup(rel): quantified inside AndExists
	imgFree bdd.Ref // current-state vars absent from rel: pre-quantified from the argument
	preCube bdd.Ref // next-state vars in sup(rel)
	preFree bdd.Ref // next-state vars absent from rel
}

// Disjunct holds the components of a disjunctive transition partition.
type Disjunct struct {
	comps []component
}

// NumComponents returns the number of disjunctive components.
func (d *Disjunct) NumComponents() int { return len(d.comps) }

// ComponentNames returns the component display names in installation
// order.
func (d *Disjunct) ComponentNames() []string {
	out := make([]string, len(d.comps))
	for i := range d.comps {
		out[i] = d.comps[i].name
	}
	return out
}

// Components returns a copy of the component relations.
func (d *Disjunct) Components() []bdd.Ref {
	out := make([]bdd.Ref, len(d.comps))
	for i := range d.comps {
		out[i] = d.comps[i].rel
	}
	return out
}

// SetDisjuncts installs a disjunctive partition of the transition
// relation: the union of the components must equal Trans (the SMV
// compiler guarantees this for process models). Constant-false
// components are dropped. names supplies display names per component
// (nil for positional defaults). Passing an empty slice removes the
// partition. Installation computes the per-component quantification
// cubes from the components' supports.
//
// The disjunctive path starts disabled; EnableDisjunct(true) switches
// Image/Preimage/Reachable over to it.
func (s *Symbolic) SetDisjuncts(comps []bdd.Ref, names []string) {
	m := s.M
	if s.disj != nil {
		for i := range s.disj.comps {
			c := &s.disj.comps[i]
			m.Unprotect(c.rel)
			m.Unprotect(c.imgCube)
			m.Unprotect(c.imgFree)
			m.Unprotect(c.preCube)
			m.Unprotect(c.preFree)
		}
		s.disj = nil
	}
	if len(comps) == 0 {
		return
	}
	isCur := make(map[int]bool, len(s.Vars))
	isNext := make(map[int]bool, len(s.Vars))
	for _, v := range s.Vars {
		isCur[v.Cur] = true
		isNext[v.Next] = true
	}
	d := &Disjunct{}
	for i, rel := range comps {
		if rel == bdd.False {
			continue
		}
		name := ""
		if names != nil && i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = "component#" + strconv.Itoa(i)
		}
		inSup := map[int]bool{}
		for _, v := range m.Support(rel) {
			inSup[v] = true
		}
		var curIn, curOut, nextIn, nextOut []int
		for _, sv := range s.Vars {
			if inSup[sv.Cur] {
				curIn = append(curIn, sv.Cur)
			} else {
				curOut = append(curOut, sv.Cur)
			}
			if inSup[sv.Next] {
				nextIn = append(nextIn, sv.Next)
			} else {
				nextOut = append(nextOut, sv.Next)
			}
		}
		d.comps = append(d.comps, component{
			rel:     m.Protect(rel),
			name:    name,
			imgCube: m.Protect(m.Cube(curIn)),
			imgFree: m.Protect(m.Cube(curOut)),
			preCube: m.Protect(m.Cube(nextIn)),
			preFree: m.Protect(m.Cube(nextOut)),
		})
	}
	s.disj = d
	// Defer the monolithic relation when nothing installed one: Trans()
	// will OR the components on first demand, exactly as the conjunctive
	// partition defers the cluster conjunction.
	if s.trans == bdd.True && s.part == nil {
		s.transValid = false
	}
}

// EnableDisjunct toggles use of an installed disjunctive partition.
// When enabled it takes precedence over a conjunctive partition, so
// differential tests can flip one structure between all three image
// strategies (disjunctive, conjunctive, monolithic).
func (s *Symbolic) EnableDisjunct(on bool) { s.disjOn = on }

// DisjunctEnabled reports whether Image/Preimage currently use the
// disjunctive partition.
func (s *Symbolic) DisjunctEnabled() bool { return s.disj != nil && s.disjOn }

// Disjunct returns the installed disjunctive partition, or nil.
func (s *Symbolic) Disjunct() *Disjunct { return s.disj }

// NumDisjuncts returns the number of installed disjunctive components
// (0 if none).
func (s *Symbolic) NumDisjuncts() int {
	if s.disj == nil {
		return 0
	}
	return len(s.disj.comps)
}

// SetWorkers does nothing: every image mode runs sequentially on the
// one single-threaded manager.
//
// Deprecated: the shared-memory parallel BDD engine it configured has
// been removed. SetWorkers remains only because perfbench calls it.
func (s *Symbolic) SetWorkers(int) {}

// imageDisjunct computes successors over the disjunctive components.
func (s *Symbolic) imageDisjunct(from bdd.Ref) bdd.Ref {
	args := make([]bdd.Ref, len(s.disj.comps))
	for i := range args {
		args[i] = from
	}
	return s.ToCur(s.disjunctApply(args, false))
}

// preimageDisjunct computes EX to over the disjunctive components.
func (s *Symbolic) preimageDisjunct(to bdd.Ref) bdd.Ref {
	next := s.ToNext(to)
	args := make([]bdd.Ref, len(s.disj.comps))
	for i := range args {
		args[i] = next
	}
	return s.disjunctApply(args, true)
}

// disjunctApply evaluates ⋁ᵢ ∃cubeᵢ.(argsᵢ ∧ Tᵢ) and returns the union
// (over next-state variables for the image direction, current-state for
// the preimage direction). args holds one argument per component —
// identical refs for a plain image, per-component deltas for the
// reachability sweep; bdd.False entries are skipped. Every component's
// relational product runs on the main manager (sharing its AndExists
// cache), with a reorder safe point between components.
func (s *Symbolic) disjunctApply(args []bdd.Ref, pre bool) bdd.Ref {
	m := s.M
	d := s.disj
	res := bdd.False
	ptrs := make([]*bdd.Ref, 0, len(args)+1)
	ptrs = append(ptrs, &res)
	for i := range args {
		ptrs = append(ptrs, &args[i])
	}
	id := m.RegisterRefs(ptrs...)
	for i := range d.comps {
		if args[i] == bdd.False {
			continue
		}
		m.ReorderIfNeeded()
		c := &d.comps[i]
		cube, free := c.imgCube, c.imgFree
		if pre {
			cube, free = c.preCube, c.preFree
		}
		part := m.AndExists(m.Exists(args[i], free), c.rel, cube)
		res = m.Or(res, part)
		s.relStats.ClusterSteps++
		s.relStats.DisjunctSteps++
		s.noteLiveNodes()
	}
	m.Unregister(id)
	return res
}

// reachableDisjunct is the disjunctive reachability sweep with
// per-component frontier tracking: fed[i] is the set of states already
// expanded through component i, and each round feeds component i only
// reached ∖ fed[i]. The components chain: states found by an earlier
// component feed later components in the same round. Returns the
// reachable set and the number of rounds.
func (s *Symbolic) reachableDisjunct() (bdd.Ref, int) {
	m := s.M
	d := s.disj
	k := len(d.comps)
	reached := m.Protect(s.Init)
	fed := make([]bdd.Ref, k) // zero value bdd.False
	id := m.RegisterRoots(func(visit func(bdd.Ref)) {
		for _, f := range fed {
			visit(f)
		}
	})
	rounds := 0
	for {
		m.ReorderIfNeeded()
		changed := false
		for i := range d.comps {
			delta := m.Diff(reached, fed[i])
			if delta == bdd.False {
				continue
			}
			fed[i] = reached
			args := make([]bdd.Ref, k)
			args[i] = delta
			img := s.ToCur(s.disjunctApply(args, false))
			next := m.Or(reached, img)
			if next != reached {
				changed = true
				m.Unprotect(reached)
				reached = m.Protect(next)
			}
		}
		if !changed {
			break
		}
		rounds++
		m.MaybeGC()
	}
	m.Unregister(id)
	m.Unprotect(reached)
	return reached, rounds
}
