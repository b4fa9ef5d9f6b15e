// Package mc implements the symbolic CTL model-checking algorithms of
// Sections 4 and 5 of the paper: the fixpoint procedures CheckEX,
// CheckEU and CheckEG, and their fair variants CheckFairEX, CheckFairEU
// and CheckFairEG. The fair EU and fair EG procedures additionally
// save approximation sequences ("onion rings"), EU its own and fair EG
// those of its inner least fixpoints, which Section 6's witness
// construction consumes.
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

	// RingReuses counts EUApproxUntil and FairEG calls answered from the
	// witness ring caches without a fixpoint iteration.
	RingReuses uint64

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

	// The witness ring caches: the rings of E[f U g] computed so far,
	// keyed by (f, g), and FairEG's confirming-round rings, keyed by f.
	// Like the manager's computed tables they hold plain refs, neither
	// protected nor registered, and are dropped when the manager's
	// collection count moves past ringEpoch (see syncRings).
	euRings   map[euKey]euPrefix
	egRings   map[bdd.Ref]*Rings
	ringEpoch uint64
}

// euKey identifies the ring sequence of E[f U g].
type euKey struct{ f, g bdd.Ref }

// euPrefix is a cached prefix of E[f U g]'s ring sequence; done marks
// the whole sequence, ending at the fixpoint.
type euPrefix struct {
	rings []bdd.Ref
	done  bool
}

// New creates a checker for the structure. Every set the checker keeps
// across calls — the subformula memo, the EG seeds, the fair set and
// the care set — is protected, so collections and dynamic reordering
// keep it; call Close to drop the protections when discarding a checker
// before its manager.
func New(s *kripke.Symbolic) *Checker {
	return &Checker{S: s, care: bdd.True, memo: map[string]bdd.Ref{}, egSets: map[bdd.Ref]bdd.Ref{}}
}

// Close drops the checker's protections. The checker must not be used
// afterwards.
func (c *Checker) Close() {
	c.dropFixpoints()
	if c.care != bdd.True {
		c.S.M.Unprotect(c.care)
	}
	c.care = bdd.True
}

// dropFixpoints unprotects and forgets every set the checker holds for
// the current care set: the subformula memo, the EG seeds, the fair set
// and the witness ring caches.
func (c *Checker) dropFixpoints() {
	m := c.S.M
	c.euRings, c.egRings = nil, nil
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

// syncRings drops the witness ring caches if a collection has run since
// they were filled, then makes sure they exist. Collections and the
// swaps of an order change are the only events after which an
// unprotected ref may stop denoting the node it named, and every order
// change starts with a collection, so within one epoch a cached ring
// is the very BDD a recomputation returns: the unique table still holds
// its node.
func (c *Checker) syncRings() {
	if e := c.S.M.Stats.GCRuns; e != c.ringEpoch || c.euRings == nil {
		c.euRings = map[euKey]euPrefix{}
		c.egRings = map[bdd.Ref]*Rings{}
		c.ringEpoch = e
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
// lfp Z [ g ∨ (f ∧ EX Z) ], keeping no rings: the set-only fixpoint for
// callers whose sets no witness descends (checkBasis goes through
// FairEU, which keeps them).
func (c *Checker) EU(f, g bdd.Ref) bdd.Ref {
	res, _, _ := c.euApprox(f, g, nil, false, nil)
	return res
}

// EUApprox computes E[f U g] and returns the increasing approximation
// sequence Q_0 ⊆ Q_1 ⊆ ... ⊆ Q_k: Q_i is the set of states from which a
// state in g can be reached in i or fewer steps while satisfying f. The
// rings are the raw material of the witness walk.
func (c *Checker) EUApprox(f, g bdd.Ref) (bdd.Ref, []bdd.Ref) {
	res, rings, _ := c.euApprox(f, g, nil, true, nil)
	return res, rings
}

// EUApproxUntil computes EUApprox's rings only as far as the first ring
// for which stop reports true, and returns them with true; when stop
// never fires it returns all of them and false. A witness walk that
// descends from the first ring meeting some set needs no ring beyond
// it, so it can skip the rest of the fixpoint. A nil stop never fires:
// the call computes the whole sequence, as FairEU does for the check.
//
// The rings computed so far are cached until the next collection or
// reorder: stop runs over the cached prefix first, and the fixpoint
// iterates only past its end. The returned slice belongs to the cache
// and is read-only; like every unprotected ref, its rings are valid
// until the caller's next collection or reorder safe point.
func (c *Checker) EUApproxUntil(f, g bdd.Ref, stop func(ring bdd.Ref) bool) ([]bdd.Ref, bool) {
	c.syncRings()
	cached := c.euRings[euKey{f, g}]
	for i, q := range cached.rings {
		if stop != nil && stop(q) {
			c.Stats.RingReuses++
			return cached.rings[: i+1 : i+1], true
		}
	}
	if cached.done {
		c.Stats.RingReuses++
		return cached.rings, false
	}
	// Extending the prefix hits reorder safe points: the check calls in
	// from its fixpoints, and WitnessEU before it pauses reordering.
	// euApprox registers f and the rings, g among them as the first, so
	// the key and the prefix survive any collection or sift the
	// extension triggers.
	_, rings, stopped := c.euApprox(f, g, cached.rings, true, stop)
	c.syncRings()
	c.euRings[euKey{f, g}] = euPrefix{rings: rings, done: !stopped}
	return rings, stopped
}

// euApprox iterates Q_{i+1} = Q_i ∨ (f ∧ EX Q_i) to the least fixpoint,
// starting from the last ring of prefix, or from Q_0 = g when prefix is
// empty. With keepRings it returns prefix extended by every ring it
// computes. stop is consulted on each new ring (prefix rings are the
// caller's), and ends the iteration early when it fires.
func (c *Checker) euApprox(f, g bdd.Ref, prefix []bdd.Ref, keepRings bool, stop func(bdd.Ref) bool) (bdd.Ref, []bdd.Ref, bool) {
	m := c.S.M
	c.Stats.EUFixpoints++
	rings := prefix
	q := g
	if n := len(prefix); n > 0 {
		q = prefix[n-1]
	} else {
		if keepRings {
			rings = append(rings, q)
		}
		if stop != nil && stop(q) {
			return q, rings, true
		}
	}
	// The loop's refs are registered so the per-iteration reorder safe
	// point (and any collection or sift inside EX's cluster chain) keeps
	// them. The returned rings are only guaranteed until the caller's
	// next safe point: callers keeping them across one register them
	// (FairEG does) or pause reordering (the witness generator does).
	id := m.RegisterRoots(func(visit func(bdd.Ref)) {
		visit(f)
		visit(q)
		for _, r := range rings {
			visit(r)
		}
	})
	defer m.Unregister(id)
	for {
		c.Stats.EUIterations++
		c.note()
		c.maybeReorder()
		ex := c.EX(q)
		next := m.Or(q, m.And(f, ex))
		if next == q {
			return q, rings, false
		}
		q = next
		if keepRings {
			rings = append(rings, q)
		}
		if stop != nil && stop(q) {
			return q, rings, true
		}
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
		res = c.FairEU(l, r)
	case ctl.KEG:
		l, err := c.checkBasis(f.L)
		if err != nil {
			return bdd.False, err
		}
		if len(c.S.Fair) == 0 {
			res = c.EG(l)
		} else {
			res = c.fairEGSet(l)
		}
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
