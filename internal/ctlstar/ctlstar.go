// Package ctlstar implements Section 7 of the paper: model checking and
// witness generation for the CTL* fragment
//
//	E ⋀_{j=1..n} ( GF p_j ∨ FG q_j )
//
// over state formulas p_j, q_j. Two checking procedures are provided:
//
//   - the Emerson–Lei fixpoint characterization
//     E ⋀_j (GF p_j ∨ FG q_j) = EF gfp Y [ ⋀_j ((q_j ∧ EX Y) ∨ EX E[Y U p_j ∧ Y]) ]
//     which runs in a single fixpoint computation, and
//
//   - the case-split of the witness construction: each disjunction is
//     resolved to one of its terms, reducing the formula to
//     EF EG(⋀ q chosen) under fairness constraints {p chosen}, which the
//     Section 6 machinery checks and produces witnesses for.
//
// Both must agree; the tests exploit this as a self-check.
package ctlstar

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Term is one disjunct of a clause: GF p (infinitely often p) when GF is
// true, FG q (eventually always q) otherwise.
type Term struct {
	GF  bool
	Arg *ctl.Formula
}

func (t Term) String() string {
	op := "FG"
	if t.GF {
		op = "GF"
	}
	return op + " (" + t.Arg.String() + ")"
}

// Clause is a disjunction of terms.
type Clause []Term

func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, t := range c {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// Formula is the existentially quantified conjunction of clauses:
// E ⋀ clauses.
type Formula []Clause

func (f Formula) String() string {
	parts := make([]string, len(f))
	for i, c := range f {
		parts[i] = c.String()
	}
	return "E " + strings.Join(parts, " & ")
}

// GFTerm and FGTerm are convenience constructors.
func GFTerm(arg *ctl.Formula) Term { return Term{GF: true, Arg: arg} }
func FGTerm(arg *ctl.Formula) Term { return Term{GF: false, Arg: arg} }

// Checker evaluates fragment formulas over a symbolic structure. The
// structure's own fairness constraints are folded in as additional
// single-term GF clauses, matching the Section 5 semantics.
type Checker struct {
	C *mc.Checker

	// Stats
	Splits uint64 // case splits examined
}

// New creates a fragment checker on top of a CTL checker.
func New(c *mc.Checker) *Checker { return &Checker{C: c} }

// withAmbient appends the structure's fairness constraints as GF clauses
// (expressed directly as BDD sets).
type bddTerm struct {
	gf  bool
	set bdd.Ref
}

func (sc *Checker) compile(f Formula) ([][]bddTerm, error) {
	var out [][]bddTerm
	for _, cl := range f {
		if len(cl) == 0 {
			return nil, errors.New("ctlstar: empty clause")
		}
		var bc []bddTerm
		for _, t := range cl {
			set, err := sc.C.Check(t.Arg)
			if err != nil {
				return nil, err
			}
			bc = append(bc, bddTerm{gf: t.GF, set: set})
		}
		out = append(out, bc)
	}
	for _, h := range sc.C.S.Fair {
		out = append(out, []bddTerm{{gf: true, set: h}})
	}
	return out, nil
}

// CheckEL computes the satisfaction set with the Emerson–Lei fixpoint.
// Clauses containing more than one FG term are first expanded into
// variants with a single FG term each (the fixpoint formula is only
// sound for the paper's (GF p ∨ FG q) clause shape: a path alternating
// between two FG-sets would otherwise be wrongly accepted), and the
// results are unioned — which is valid because a path satisfying the
// clause satisfies one of the variants.
func (sc *Checker) CheckEL(f Formula) (bdd.Ref, error) {
	// The procedure holds compiled term sets and fixpoint iterates as
	// plain locals and works through WithFairness views whose sets are
	// neither protected nor registered. The collection that opens every
	// sift would free them, so dynamic reordering is paused for its
	// duration.
	resume := sc.C.S.M.PauseAutoReorder()
	defer resume()
	clauses, err := sc.compile(f)
	if err != nil {
		return bdd.False, err
	}
	m := sc.C.S.M
	result := bdd.False
	for _, variant := range expandFG(clauses) {
		result = m.Or(result, sc.checkELCompiled(variant))
	}
	return result, nil
}

// expandFG rewrites every clause with two or more FG terms into the set
// of variants keeping all GF terms and exactly one FG term, and returns
// the cartesian product of the variants across clauses.
func expandFG(clauses [][]bddTerm) [][][]bddTerm {
	variants := [][][]bddTerm{nil}
	for _, cl := range clauses {
		var gfs, fgs []bddTerm
		for _, t := range cl {
			if t.gf {
				gfs = append(gfs, t)
			} else {
				fgs = append(fgs, t)
			}
		}
		var options [][]bddTerm
		if len(fgs) <= 1 {
			options = [][]bddTerm{cl}
		} else {
			for _, fg := range fgs {
				opt := append(append([]bddTerm(nil), gfs...), fg)
				options = append(options, opt)
			}
		}
		var next [][][]bddTerm
		for _, v := range variants {
			for _, opt := range options {
				nv := append(append([][]bddTerm(nil), v...), opt)
				next = append(next, nv)
			}
		}
		variants = next
	}
	return variants
}

func (sc *Checker) checkELCompiled(clauses [][]bddTerm) bdd.Ref {
	m := sc.C.S.M
	// gfp Y [ ⋀_clauses ⋁_terms step(term, Y) ] where
	//   step(GF p, Y)  = EX E[Y U (p ∧ Y)]
	//   step(FG q, Y)  = (q ∧ EX Y)  ∨  EX E[Y U (p ∧ Y)] — the paper's
	// formula groups a clause (GF p ∨ FG q) as
	//   (q ∧ EX Y) ∨ EX E[Y U (p ∧ Y)].
	// For a general clause we take the disjunction over its terms.
	y := bdd.True
	for {
		next := bdd.True
		for _, cl := range clauses {
			clSet := bdd.False
			for _, t := range cl {
				var step bdd.Ref
				if t.gf {
					target := m.And(t.set, y)
					step = sc.C.EX(sc.C.EU(y, target))
				} else {
					step = m.And(t.set, sc.C.EX(y))
				}
				clSet = m.Or(clSet, step)
			}
			next = m.And(next, clSet)
		}
		next = m.And(next, y)
		if next == y {
			break
		}
		y = next
	}
	// E ⋀ ... = EF (gfp Y)
	return sc.C.EU(bdd.True, y)
}

// Split is one resolution of every clause to a single term.
type Split struct {
	Invariant bdd.Ref   // conjunction of chosen FG arguments
	FairSets  []bdd.Ref // chosen GF arguments
	FairNames []string
	Choice    []int // index of the chosen term per clause
}

// CheckSplit computes the satisfaction set by enumerating all case
// splits (exponential in the number of clauses with 2+ terms) and
// returns, along with the union, the first split satisfying a given
// state when from is non-nil.
func (sc *Checker) CheckSplit(f Formula) (bdd.Ref, error) {
	set, _, err := sc.checkSplitFind(f, nil)
	return set, err
}

func (sc *Checker) checkSplitFind(f Formula, from kripke.State) (bdd.Ref, *Split, error) {
	// See CheckEL: compiled sets and split results are unrooted.
	resume := sc.C.S.M.PauseAutoReorder()
	defer resume()
	clauses, err := sc.compile(f)
	if err != nil {
		return bdd.False, nil, err
	}
	m := sc.C.S.M
	s := sc.C.S
	result := bdd.False
	var found *Split

	choice := make([]int, len(clauses))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(clauses) {
			sc.Splits++
			split := sc.buildSplit(clauses, choice)
			set := sc.splitSet(split)
			result = m.Or(result, set)
			if found == nil && from != nil && s.Holds(set, from) {
				cp := *split
				cp.Choice = append([]int(nil), choice...)
				found = &cp
			}
			return nil
		}
		for c := range clauses[i] {
			choice[i] = c
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return bdd.False, nil, err
	}
	return result, found, nil
}

// buildSplit assembles the invariant and fairness constraints of one
// term choice.
func (sc *Checker) buildSplit(clauses [][]bddTerm, choice []int) *Split {
	m := sc.C.S.M
	split := &Split{Invariant: bdd.True}
	for i, cl := range clauses {
		t := cl[choice[i]]
		if t.gf {
			split.FairSets = append(split.FairSets, t.set)
			split.FairNames = append(split.FairNames, fmt.Sprintf("GF#%d", i))
		} else {
			split.Invariant = m.And(split.Invariant, t.set)
		}
	}
	return split
}

// splitSet computes EF EG(invariant) under fairness {chosen GF sets} —
// the satisfaction set of one split.
func (sc *Checker) splitSet(split *Split) bdd.Ref {
	view := sc.C.S.WithFairness(split.FairSets, split.FairNames)
	vc := mc.New(view)
	defer vc.Close()
	eg, _ := vc.FairEG(split.Invariant)
	// The prefix is unconstrained: plain EF (no ambient fairness — it is
	// already folded into the clauses).
	plain := mc.New(sc.C.S.WithFairness(nil, nil))
	defer plain.Close()
	return plain.EU(bdd.True, eg)
}

// Check verifies the fragment formula with the Emerson–Lei procedure and
// returns its satisfaction set. (CheckSplit is exposed separately for
// cross-checking and is used internally by Witness.)
func (sc *Checker) Check(f Formula) (bdd.Ref, error) { return sc.CheckEL(f) }

// Witness produces a lasso demonstrating E ⋀ clauses from the given
// state: a finite prefix to a state where the chosen EG holds, followed
// by a fair cycle on which every chosen GF term recurs and the chosen FG
// terms hold throughout. It case-splits exactly as the paper describes,
// preferring splits in clause-term order.
func (sc *Checker) Witness(f Formula, from kripke.State) (*core.Trace, error) {
	s := sc.C.S
	// See CheckEL: the split's sets and the view checkers below are
	// neither protected nor registered.
	resume := s.M.PauseAutoReorder()
	defer resume()
	_, split, err := sc.checkSplitFind(f, from)
	if err != nil {
		return nil, err
	}
	if split == nil {
		return nil, core.ErrNotSatisfied
	}

	view := s.WithFairness(split.FairSets, split.FairNames)
	vc := mc.New(view)
	defer vc.Close()
	eg, _ := vc.FairEG(split.Invariant)

	// Finite prefix: EU(true, eg) with no fairness on the prefix.
	plain := mc.New(s.WithFairness(nil, nil))
	defer plain.Close()
	pgen := core.NewGenerator(plain)
	prefix, err := pgen.WitnessEU(bdd.True, eg, from)
	if err != nil {
		return nil, fmt.Errorf("ctlstar: prefix: %w", err)
	}

	// Lasso: fair EG witness from the prefix endpoint.
	vgen := core.NewGenerator(vc)
	lasso, err := vgen.WitnessEG(split.Invariant, prefix.Last())
	if err != nil {
		return nil, fmt.Errorf("ctlstar: lasso: %w", err)
	}

	base := len(prefix.States) - 1
	tr := &core.Trace{S: s, CycleStart: base + lasso.CycleStart, FairHits: map[int]int{}}
	tr.States = append(tr.States, prefix.States...)
	tr.States = append(tr.States, lasso.States[1:]...)
	for h, idx := range lasso.FairHits {
		tr.FairHits[h] = base + idx
	}
	return tr, nil
}

// ValidateWitness checks a fragment witness: the lasso must close, the
// cycle must satisfy every GF argument at least once per chosen... since
// the choice is internal, validation checks the formula semantics
// directly: for each clause, the cycle either contains a state of some
// GF term's set, or consists entirely of states of some FG term's set.
// Ambient fairness constraints must also recur on the cycle.
func (sc *Checker) ValidateWitness(f Formula, tr *core.Trace) error {
	s := sc.C.S
	if err := core.ValidatePath(s, tr); err != nil {
		return err
	}
	if !tr.IsLasso() {
		return errors.New("ctlstar: witness must be a lasso")
	}
	clauses, err := sc.compile(f)
	if err != nil {
		return err
	}
	for ci, cl := range clauses {
		ok := false
		for _, t := range cl {
			if t.gf {
				for i := tr.CycleStart; i < len(tr.States); i++ {
					if s.Holds(t.set, tr.States[i]) {
						ok = true
						break
					}
				}
			} else {
				all := true
				for i := tr.CycleStart; i < len(tr.States); i++ {
					if !s.Holds(t.set, tr.States[i]) {
						all = false
						break
					}
				}
				ok = all
			}
			if ok {
				break
			}
		}
		if !ok {
			return fmt.Errorf("ctlstar: clause %d not satisfied on the cycle", ci)
		}
	}
	return nil
}
