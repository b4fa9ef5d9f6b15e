// Package mc implements the symbolic CTL model-checking algorithms of
// Sections 4 and 5 of the paper: the fixpoint procedures CheckEX,
// CheckEU and CheckEG, and their fair variants CheckFairEX, CheckFairEU
// and CheckFairEG. The fair EG procedure additionally saves the
// approximation sequences ("onion rings") of its inner least fixpoints,
// which Section 6's witness construction consumes.
package mc

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Stats counts fixpoint work for benchmarking. The preimage block
// observes the partitioned relational product: every EX routes through
// kripke's Preimage, and the checker records how many cluster steps the
// installed schedule took, the live-node peak reached inside those
// chains, and the AndExists cache traffic its calls generated.
type Stats struct {
	EXCalls      uint64
	EUFixpoints  uint64
	EUIterations uint64
	EGFixpoints  uint64
	EGIterations uint64
	FairEGOuter  uint64
	PeakNodes    int

	// MemoHits counts checkBasis lookups answered from the per-checker
	// subformula memo — the cross-spec sharing a session-scoped checker
	// gets when overlapping specs are checked against one structure.
	MemoHits uint64

	PreimageCalls    uint64
	ClusterSteps     uint64
	DisjunctSteps    uint64 // component products taken by the disjunctive image
	PeakClusterNodes int
	AndExistsLookups uint64
	AndExistsHits    uint64

	// Dynamic-reordering deltas: sift events triggered and wall time
	// spent reordering during this checker's work.
	Reorders    uint64
	ReorderTime time.Duration
}

// Checker evaluates CTL formulas over a symbolic Kripke structure. When
// the structure declares fairness constraints, the path quantifiers are
// restricted to fair paths (Section 5).
type Checker struct {
	S     *kripke.Symbolic
	Stats Stats

	fairSet  bdd.Ref // cached CheckFairEG(True); bdd.True when no constraints
	haveFair bool

	care bdd.Ref // don't-care optimization: all results restricted to care

	memo map[string]bdd.Ref // formula string -> protected state set

	// egSets maps f to the EG f fixpoint (fair EG under fairness
	// constraints) computed for it, both protected: the seeds FairEG
	// starts a witness's outer iteration from.
	egSets map[bdd.Ref]bdd.Ref

	hook int // reorder-registry id (see rewriteRefs)
}

// New creates a checker for the structure. The checker registers with
// the manager's reorder registry so its memoized satisfaction sets, the
// fair set and the care set survive dynamic reordering; call Close to
// release the registration and the protections when discarding a
// checker before its manager.
func New(s *kripke.Symbolic) *Checker {
	c := &Checker{S: s, care: bdd.True, memo: map[string]bdd.Ref{}, egSets: map[bdd.Ref]bdd.Ref{}}
	c.hook = s.M.OnReorder(c.rewriteRefs)
	return c
}

// rewriteRefs is the checker's reorder hook.
func (c *Checker) rewriteRefs(translate func(bdd.Ref) bdd.Ref) {
	for k, v := range c.memo {
		c.memo[k] = translate(v)
	}
	egSets := make(map[bdd.Ref]bdd.Ref, len(c.egSets))
	for f, eg := range c.egSets {
		egSets[translate(f)] = translate(eg)
	}
	c.egSets = egSets
	if c.haveFair {
		c.fairSet = translate(c.fairSet)
	}
	c.care = translate(c.care)
}

// Close unregisters the checker from the reorder registry and drops its
// protections. The checker must not be used afterwards.
func (c *Checker) Close() {
	c.S.M.Unregister(c.hook)
	c.dropFixpoints()
	if c.care != bdd.True {
		c.S.M.Unprotect(c.care)
	}
	c.care = bdd.True
}

// dropFixpoints unprotects and forgets every set the checker holds for
// the current care set: the subformula memo, the EG seeds and the fair
// set.
func (c *Checker) dropFixpoints() {
	m := c.S.M
	for _, r := range c.memo {
		m.Unprotect(r)
	}
	c.memo = map[string]bdd.Ref{}
	for f, eg := range c.egSets {
		m.Unprotect(f)
		m.Unprotect(eg)
	}
	c.egSets = map[bdd.Ref]bdd.Ref{}
	if c.haveFair {
		m.Unprotect(c.fairSet)
		c.haveFair = false
	}
}

// maybeReorder is the checker's fixpoint safe point: it lets the
// manager sift if growth demands it and attributes the work to this
// checker's stats.
func (c *Checker) maybeReorder() {
	m := c.S.M
	before := m.Stats
	if m.ReorderIfNeeded() {
		c.Stats.Reorders += m.Stats.AutoReorders - before.AutoReorders
		c.Stats.ReorderTime += m.Stats.ReorderTime - before.ReorderTime
	}
}

// UseReachableCareSet computes the reachable states and restricts all
// subsequent checking to them — the classic reachability don't-care
// optimization. Satisfaction sets returned by Check afterwards are only
// meaningful on reachable states (which is what CheckInit and witness
// generation from reachable states consume); intermediate BDDs shrink,
// often substantially. Must be called before any Check (the memo is
// cleared).
func (c *Checker) UseReachableCareSet() bdd.Ref {
	before := c.S.M.Stats
	reach, _ := c.S.Reachable()
	c.Stats.Reorders += c.S.M.Stats.AutoReorders - before.AutoReorders
	c.Stats.ReorderTime += c.S.M.Stats.ReorderTime - before.ReorderTime
	c.SetCareSet(reach)
	return reach
}

// SetCareSet installs an arbitrary care set (bdd.True disables the
// optimization).
func (c *Checker) SetCareSet(care bdd.Ref) {
	c.dropFixpoints()
	c.care = c.S.M.Protect(care)
}

func (c *Checker) note() {
	if n := c.S.M.NumNodes(); n > c.Stats.PeakNodes {
		c.Stats.PeakNodes = n
	}
}

// EX computes the states with a successor in f (no fairness),
// restricted to the care set.
func (c *Checker) EX(f bdd.Ref) bdd.Ref {
	c.Stats.EXCalls++
	c.note()
	rel0 := c.S.RelStats()
	ae0 := c.S.M.Stats
	pre := c.S.Preimage(f)
	rel1 := c.S.RelStats()
	c.Stats.PreimageCalls++
	c.Stats.ClusterSteps += rel1.ClusterSteps - rel0.ClusterSteps
	c.Stats.DisjunctSteps += rel1.DisjunctSteps - rel0.DisjunctSteps
	if rel1.PeakLiveNodes > c.Stats.PeakClusterNodes {
		c.Stats.PeakClusterNodes = rel1.PeakLiveNodes
	}
	c.Stats.AndExistsLookups += c.S.M.Stats.AndExistsLookups - ae0.AndExistsLookups
	c.Stats.AndExistsHits += c.S.M.Stats.AndExistsHits - ae0.AndExistsHits
	c.Stats.Reorders += c.S.M.Stats.AutoReorders - ae0.AutoReorders
	c.Stats.ReorderTime += c.S.M.Stats.ReorderTime - ae0.ReorderTime
	if c.care != bdd.True {
		pre = c.S.M.And(pre, c.care)
	}
	return pre
}

// EU computes E[f U g] (no fairness) by the least fixpoint
// lfp Z [ g ∨ (f ∧ EX Z) ].
func (c *Checker) EU(f, g bdd.Ref) bdd.Ref {
	res, _, _ := c.euApprox(f, g, false, nil)
	return res
}

// EUApprox computes E[f U g] and returns the increasing approximation
// sequence Q_0 ⊆ Q_1 ⊆ ... ⊆ Q_k: Q_i is the set of states from which a
// state in g can be reached in i or fewer steps while satisfying f. The
// rings are the raw material of the witness walk.
func (c *Checker) EUApprox(f, g bdd.Ref) (bdd.Ref, []bdd.Ref) {
	res, rings, _ := c.euApprox(f, g, true, nil)
	return res, rings
}

// EUApproxUntil computes EUApprox's rings only as far as the first ring
// for which stop reports true, and returns them with true; when stop
// never fires it returns all of them and false. A witness walk that
// descends from the first ring meeting some set needs no ring beyond
// it, so it can skip the rest of the fixpoint.
func (c *Checker) EUApproxUntil(f, g bdd.Ref, stop func(ring bdd.Ref) bool) ([]bdd.Ref, bool) {
	_, rings, stopped := c.euApprox(f, g, true, stop)
	return rings, stopped
}

func (c *Checker) euApprox(f, g bdd.Ref, keepRings bool, stop func(bdd.Ref) bool) (bdd.Ref, []bdd.Ref, bool) {
	m := c.S.M
	c.Stats.EUFixpoints++
	var rings []bdd.Ref
	q := g
	// The loop's refs are registered so the per-iteration reorder safe
	// point (and any reorder inside EX's cluster chain) rewrites them.
	// The returned rings are only guaranteed until the caller's next
	// operation: callers keeping them must protect and register them
	// (FairEG does) or pause reordering (the witness generator does).
	id := m.OnReorder(func(translate func(bdd.Ref) bdd.Ref) {
		f = translate(f)
		q = translate(q)
		for i := range rings {
			rings[i] = translate(rings[i])
		}
	})
	defer m.Unregister(id)
	for {
		if keepRings {
			rings = append(rings, q)
		}
		if stop != nil && stop(q) {
			return q, rings, true
		}
		c.Stats.EUIterations++
		c.note()
		c.maybeReorder()
		ex := c.EX(q)
		next := m.Or(q, m.And(f, ex))
		if next == q {
			return q, rings, false
		}
		q = next
	}
}

// EG computes EG f (no fairness) by the greatest fixpoint
// gfp Z [ f ∧ EX Z ].
func (c *Checker) EG(f bdd.Ref) bdd.Ref {
	m := c.S.M
	c.Stats.EGFixpoints++
	z := f
	id := m.RegisterRefs(&f, &z)
	defer m.Unregister(id)
	for {
		c.Stats.EGIterations++
		c.note()
		c.maybeReorder()
		ex := c.EX(z)
		next := m.And(f, ex)
		next = m.And(next, z) // monotone anyway; keeps the invariant explicit
		if next == z {
			return z
		}
		z = next
	}
}

// EF computes EF f = E[true U f].
func (c *Checker) EF(f bdd.Ref) bdd.Ref { return c.EU(bdd.True, f) }

// Check evaluates an arbitrary CTL formula and returns the set of states
// satisfying it. The formula is simplified (fairness-soundly) and
// rewritten into the existential basis first; fairness constraints on
// the structure are honored. Results are memoized per formula text, and
// the returned set is protected against garbage collection for the
// checker's lifetime.
func (c *Checker) Check(f *ctl.Formula) (bdd.Ref, error) {
	g := ctl.Existential(ctl.Simplify(f))
	return c.checkBasis(g)
}

// MustCheck is Check, panicking on error (unknown atoms).
func (c *Checker) MustCheck(f *ctl.Formula) bdd.Ref {
	set, err := c.Check(f)
	if err != nil {
		panic(err)
	}
	return set
}

// CheckInit reports whether every initial state satisfies f.
func (c *Checker) CheckInit(f *ctl.Formula) (bool, bdd.Ref, error) {
	set, err := c.Check(f)
	if err != nil {
		return false, bdd.False, err
	}
	return c.S.M.Implies(c.S.Init, set), set, nil
}

// checkBasis evaluates a formula in the existential basis.
func (c *Checker) checkBasis(f *ctl.Formula) (bdd.Ref, error) {
	key := f.String()
	if r, ok := c.memo[key]; ok {
		c.Stats.MemoHits++
		return r, nil
	}
	m := c.S.M
	var res bdd.Ref
	switch f.Kind {
	case ctl.KTrue:
		res = bdd.True
	case ctl.KFalse:
		res = bdd.False
	case ctl.KAtom, ctl.KEq, ctl.KNeq:
		set, err := c.S.AtomSet(f)
		if err != nil {
			return bdd.False, err
		}
		res = set
	case ctl.KNot:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		res = m.Not(l)
	case ctl.KAnd, ctl.KOr:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		r, err := c.checkBasis(f.R)
		if err != nil {
			return bdd.False, err
		}
		// A reorder during f.R's fixpoints invalidates the local copy of
		// l; the memoized entry was rewritten, so re-fetch it.
		l, _ = c.checkBasis(f.L)
		if f.Kind == ctl.KAnd {
			res = m.And(l, r)
		} else {
			res = m.Or(l, r)
		}
	case ctl.KEX:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		res = c.FairEX(l)
	case ctl.KEU:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		r, err := c.checkBasis(f.R)
		if err != nil {
			return bdd.False, err
		}
		l, _ = c.checkBasis(f.L) // see KAnd: refresh after f.R's fixpoints
		res = c.FairEU(l, r)
	case ctl.KEG:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		// l is registered across the fixpoint: a reorder inside it
		// would leave the local copy stale for holdEG.
		id := m.RegisterRefs(&l)
		if len(c.S.Fair) == 0 {
			res = c.EG(l)
		} else {
			res = c.fairEGSet(l)
		}
		m.Unregister(id)
		c.holdEG(l, res)
	default:
		return bdd.False, fmt.Errorf("mc: formula not in existential basis: %s", f)
	}
	if c.care != bdd.True {
		res = m.And(res, c.care)
	}
	m.Protect(res)
	c.memo[key] = res
	return res, nil
}
