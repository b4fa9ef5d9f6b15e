package core

import (
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Strategy selects how the EG witness construction reacts when a
// tentative cycle cannot be closed (end of Section 6).
type Strategy int

const (
	// StrategySimple restarts the constraint tour from the final state
	// s′ after a cycle-closure attempt fails.
	StrategySimple Strategy = iota
	// StrategyPrecompute precomputes E[(EG f) U {t}] when the tentative
	// cycle head t is chosen and restarts the moment the walk exits that
	// set, saving the failed closure attempt.
	StrategyPrecompute
)

func (s Strategy) String() string {
	if s == StrategyPrecompute {
		return "precompute"
	}
	return "simple"
}

// GenStats counts the work done by witness construction.
type GenStats struct {
	Restarts        uint64 // failed cycle attempts that forced a restart
	ClosureAttempts uint64 // cycle-closure checks
	RingSteps       uint64 // states appended by ring walks
	EarlyExits      uint64 // precompute-strategy early restarts
	ImageCalls      uint64 // single-state successor images taken
	WalkClosures    uint64 // unfair EG lassos closed by the forward walk
	WalkFallbacks   uint64 // forward walks that ran out of budget
}

// Generator produces witnesses and counterexamples over a checker's
// structure.
type Generator struct {
	C        *mc.Checker
	Strategy Strategy
	Stats    GenStats
}

// walkBudget is the number of single-state images the forward walk of
// an unfair EG witness may take before the ring construction runs
// instead. A sweep over the shipped models, hanoi-7, chase-16 and
// arbiter-8 chose it: 4 never closes arbiter-8's walks, and 16 or more
// grows chase's lasso past the ring construction's (DESIGN.md §5,
// *Unfair EG lassos*).
const walkBudget = 8

// maxRestarts bounds the SCC-descent restarts of one EG witness as a
// safety net: the construction provably terminates, so hitting the
// bound indicates a model or generator bug.
const maxRestarts = 1 << 20

// NewGenerator creates a witness generator with the simple restart
// strategy.
func NewGenerator(c *mc.Checker) *Generator {
	return &Generator{C: c}
}

// ErrNotSatisfied is returned when a witness is requested from a state
// that does not satisfy the formula.
var ErrNotSatisfied = errors.New("core: state does not satisfy the formula")

// image returns the successor set of a single concrete state. All of
// witness construction's successor computations funnel through here so
// they take the same (possibly partitioned) image path as the fixpoint
// engine and the traces stay consistent with the sets they walk.
func (g *Generator) image(st kripke.State) bdd.Ref {
	g.Stats.ImageCalls++
	s := g.C.S
	return s.Image(s.StateCube(st))
}

// succIn returns one successor of st inside set, or nil.
func (g *Generator) succIn(st kripke.State, set bdd.Ref) kripke.State {
	s := g.C.S
	return s.PickState(s.M.And(g.image(st), set))
}

// WitnessEG constructs a fair lasso witness for EG f starting at from:
// every state of the trace satisfies f, the cycle is reachable from
// `from`, closes, and contains at least one state from every fairness
// constraint. f is given as the BDD of its satisfaction set.
//
// Without fairness constraints any cycle inside the EG set will do, so
// a short forward walk (walkLasso) is tried first; the ring
// construction runs only when the walk finds no closing edge.
func (g *Generator) WitnessEG(f bdd.Ref, from kripke.State) (*Trace, error) {
	s := g.C.S
	egf, rings := g.C.FairEG(f)
	if !s.Holds(egf, from) {
		return nil, ErrNotSatisfied
	}
	// The walks hold many unregistered refs (the EG set and rings,
	// successor sets, closure sets, EU rings) across image computations;
	// dynamic reordering is paused for their duration. The expensive
	// fixpoints already ran.
	resume := s.M.PauseAutoReorder()
	defer resume()
	if len(s.Fair) == 0 {
		if tr := g.walkLasso(egf, from); tr != nil {
			return tr, nil
		}
	}
	return g.witnessEGRings(egf, rings, from)
}

// walkLasso closes an EG lasso on a structure without fairness
// constraints by walking forward from `from` inside egf, the EG set:
// each step takes the last state's successor image, closes the cycle at
// the first trace state the image contains, and otherwise moves to a
// successor in egf. It returns nil, leaving the witness to the ring
// construction, when walkBudget images pass without a closing edge.
func (g *Generator) walkLasso(egf bdd.Ref, from kripke.State) *Trace {
	s := g.C.S
	tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	tr.States = append(tr.States, from)
	for {
		succs := g.image(tr.Last())
		for i, st := range tr.States {
			if s.Holds(succs, st) {
				tr.CycleStart = i
				g.Stats.WalkClosures++
				return tr
			}
		}
		if len(tr.States) == walkBudget {
			break
		}
		// An EG state has a successor in the EG set; should a care set
		// break that, the ring construction reports it.
		next := s.PickState(s.M.And(succs, egf))
		if next == nil {
			break
		}
		tr.States = append(tr.States, next)
	}
	g.Stats.WalkFallbacks++
	return nil
}

// witnessEGRings is the ring-walk construction proper (the caller
// pauses reordering); egf is the fair EG fixpoint and rings the saved
// inner approximations.
func (g *Generator) witnessEGRings(egf bdd.Ref, rings *mc.Rings, from kripke.State) (*Trace, error) {
	s := g.C.S
	m := s.M
	f := rings.F

	tr := &Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	tr.States = append(tr.States, from)
	nFair := len(rings.PerFair)

	restarts := 0
	for {
		// One tour: starting at the last state of the trace, visit every
		// fairness constraint via greedy nearest-first ring walks.
		tourStart := len(tr.States) - 1
		cur := tr.States[tourStart]
		remaining := make([]bool, nFair)
		for i := range remaining {
			remaining[i] = true
		}
		left := nFair

		var cycleHead kripke.State // t: first state after the tour start
		cycleHeadIdx := -1
		var closure bdd.Ref // StrategyPrecompute: E[(EG f) U {t}]
		closureValid := false
		aborted := false

		hits := map[int]int{}

		for left > 0 && !aborted {
			// Find the nearest remaining constraint: smallest ring index
			// i such that some successor of cur lies in Q^h_i.
			succs := g.image(cur)
			var bestH, bestI int
			var bestState kripke.State
			found := false
			maxLen := 0
			for h := 0; h < nFair; h++ {
				if remaining[h] && len(rings.PerFair[h]) > maxLen {
					maxLen = len(rings.PerFair[h])
				}
			}
			for i := 0; i < maxLen && !found; i++ {
				for h := 0; h < nFair; h++ {
					if !remaining[h] || i >= len(rings.PerFair[h]) {
						continue
					}
					cand := m.And(succs, rings.PerFair[h][i])
					if cand != bdd.False {
						bestH, bestI = h, i
						bestState = s.PickState(cand)
						found = true
						break
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("core: tour stuck at %s (model violates fair-EG invariant)", s.FormatState(cur))
			}

			// Descend the rings of constraint bestH: bestState ∈ Q_i,
			// then successors in Q_{i-1}, ..., Q_0 ⊆ (EG f) ∧ h.
			walk := []kripke.State{bestState}
			st := bestState
			for j := bestI - 1; j >= 0; j-- {
				nst := g.succIn(st, rings.PerFair[bestH][j])
				if nst == nil {
					return nil, fmt.Errorf("core: ring descent stuck (constraint %d ring %d)", bestH, j)
				}
				walk = append(walk, nst)
				st = nst
			}

			for _, wst := range walk {
				tr.States = append(tr.States, wst)
				g.Stats.RingSteps++
				if cycleHeadIdx < 0 {
					cycleHeadIdx = len(tr.States) - 1
					cycleHead = wst
					if g.Strategy == StrategyPrecompute {
						closure = g.C.EU(f, s.StateCube(cycleHead))
						closureValid = true
					}
				} else if closureValid && !s.Holds(closure, wst) {
					// The walk left E[(EG f) U {t}]: the cycle can no
					// longer be closed. Restart from here immediately.
					g.Stats.EarlyExits++
					aborted = true
					break
				}
			}
			if aborted {
				break
			}
			hits[bestH] = len(tr.States) - 1
			remaining[bestH] = false
			left--
			cur = st
		}

		if !aborted {
			// All constraints visited; close the cycle with a nontrivial
			// path from s′ back to t: a witness for {s′} ∧ EX E[f U {t}].
			// The rings of E[f U {t}] are computed only up to the first
			// one meeting succ(s′): that successor is the nearest way
			// back to t, and the descent needs no ring beyond it.
			g.Stats.ClosureAttempts++
			sPrime := tr.States[len(tr.States)-1]
			succs := g.image(sPrime)
			var cand bdd.Ref
			euRings, ok := g.C.EUApproxUntil(f, s.StateCube(cycleHead), func(ring bdd.Ref) bool {
				cand = m.And(succs, ring)
				return cand != bdd.False
			})
			if ok {
				u := s.PickState(cand)
				st := u
				closing := []kripke.State{}
				if !sameState(u, cycleHead) {
					closing = append(closing, u)
					for j := len(euRings) - 2; j >= 0; j-- {
						nst := g.succIn(st, euRings[j])
						if nst == nil {
							return nil, errors.New("core: closure descent stuck")
						}
						st = nst
						if sameState(st, cycleHead) {
							break
						}
						closing = append(closing, st)
					}
					if !sameState(st, cycleHead) && !s.HasEdge(closing[len(closing)-1], cycleHead) {
						return nil, errors.New("core: closure walk failed to reach cycle head")
					}
				}
				tr.States = append(tr.States, closing...)
				g.Stats.RingSteps += uint64(len(closing))
				tr.CycleStart = cycleHeadIdx
				// Without fairness constraints the one hit is FairEG's
				// pseudo-constraint "true", which is no constraint.
				if len(s.Fair) > 0 {
					for h, idx := range hits {
						tr.FairHits[h] = idx
					}
					g.annotateFairHits(tr)
				}
				return tr, nil
			}
			// Cannot close: restart from s′ (descend the SCC DAG).
			g.Stats.Restarts++
		} else {
			g.Stats.Restarts++
		}
		restarts++
		if restarts > maxRestarts {
			return nil, errors.New("core: restart bound exceeded (model or generator bug)")
		}
	}
}

// sameState compares two concrete states.
func sameState(a, b kripke.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// annotateFairHits adds human-readable notes marking where each fairness
// constraint is satisfied on the cycle.
func (g *Generator) annotateFairHits(tr *Trace) {
	names := g.C.S.FairNames
	for h, idx := range tr.FairHits {
		name := fmt.Sprintf("h%d", h)
		if h < len(names) {
			name = names[h]
		}
		tr.note(idx, "fair: "+name)
	}
}
