package mc

import (
	"repro/internal/bdd"
)

// Fair CTL checking (Section 5). A path is fair if every constraint
// h ∈ H holds infinitely often along it. EG is the interesting case:
//
//	CheckFairEG(f) = gfp Z [ f ∧ ⋀_{k} EX( E[f U Z ∧ h_k] ) ]
//
// EX and EU reduce to the unfair procedures against the set fair of
// states that start some fair path:
//
//	CheckFairEX(f)   = CheckEX(f ∧ fair)
//	CheckFairEU(f,g) = CheckEU(f, g ∧ fair)

// Rings holds the saved approximation sequences of the inner least
// fixpoints E[f U Z ∧ h_k] from the outer iteration of fair EG that
// confirms the fixpoint, so Z is the fixpoint itself. Rings[k][i] is the
// set of states from which some state of (EG f) ∧ h_k is reachable in i
// or fewer steps along f-states. This is precisely the data Section 6's
// witness construction walks over.
type Rings struct {
	F       bdd.Ref     // the f the rings were computed for
	Result  bdd.Ref     // the fair EG f fixpoint
	PerFair [][]bdd.Ref // PerFair[k] = rings for fairness constraint k
}

// register makes the rings GC roots and returns the registration id.
// PerFair may still grow afterwards; the callback reads the current
// slices on every invocation.
func (r *Rings) register(m *bdd.Manager) int {
	return m.RegisterRoots(func(visit func(bdd.Ref)) {
		visit(r.F)
		visit(r.Result)
		for _, rs := range r.PerFair {
			for _, q := range rs {
				visit(q)
			}
		}
	})
}

// FairEG computes EG f under the structure's fairness constraints and
// returns the rings of the outer iteration that confirms the fixpoint.
// The iteration starts from the smallest superset of the fixpoint the
// checker already holds (see egSeed): a greatest fixpoint iterated from
// any superset of it reaches the same set, and from the fixpoint itself
// the first round confirms it, so a witness for a formula the checker
// has just decided costs one outer round. With no fairness constraints
// it degenerates to plain EG and a single pseudo-constraint "true" so
// that witness construction still has rings to walk (the cycle must
// merely return to the EG set).
//
// The checker owns the rings: they are cached, keyed by f, and a repeat
// call before the next collection or reorder returns them without
// iterating. They are read-only, neither protected nor registered, and
// valid until the next collection or reorder.
func (c *Checker) FairEG(f bdd.Ref) (bdd.Ref, *Rings) {
	c.syncRings()
	if r, ok := c.egRings[f]; ok {
		c.Stats.RingReuses++
		return r.Result, r
	}
	// The rings stay registered while fairEG computes them, so they
	// survive the collections and sifts it triggers.
	res, rings := c.fairEG(f, c.egSeed(f), true)
	c.syncRings()
	c.egRings[f] = rings
	return res, rings
}

// egSeed returns the smallest superset of FairEG f's fixpoint the
// checker already holds: the EG set checkBasis or FairEmptiness computed
// for f, the fair set for f = true (however it was installed, SeedFair
// included), or else f itself.
func (c *Checker) egSeed(f bdd.Ref) bdd.Ref {
	if z, ok := c.egSets[f]; ok {
		return z
	}
	if f == bdd.True && c.haveFair {
		return c.fairSet
	}
	return f
}

// holdEG records eg as the EG fixpoint of f (fair EG under fairness
// constraints) for later witness seeding. Both refs are protected until
// the care set changes or the checker closes.
func (c *Checker) holdEG(f, eg bdd.Ref) {
	if _, ok := c.egSets[f]; ok {
		return
	}
	c.egSets[c.S.M.Protect(f)] = c.S.M.Protect(eg)
}

// fairEGSet is the set-only fair EG fixpoint used by checkBasis and
// Fair: the same iteration started from f, keeping no rings.
func (c *Checker) fairEGSet(f bdd.Ref) bdd.Ref {
	z, _ := c.fairEG(f, f, false)
	return z
}

// fairEG iterates Z := Z ∧ f ∧ ⋀_k EX E[f U Z ∧ h_k] from z, which must
// contain the fixpoint. With keepRings every round saves the rings of
// its inner least fixpoints and the confirming round's are returned.
func (c *Checker) fairEG(f, z bdd.Ref, keepRings bool) (bdd.Ref, *Rings) {
	m := c.S.M
	fair := c.S.Fair // protected by the structure
	nFair := len(fair)
	useTrue := nFair == 0
	if useTrue {
		// Treat as a single trivial constraint h = true.
		nFair = 1
	}
	h := func(k int) bdd.Ref {
		if useTrue {
			return bdd.True
		}
		return fair[k]
	}

	id := m.RegisterRefs(&f, &z)
	defer m.Unregister(id)
	for {
		c.Stats.FairEGOuter++
		c.note()
		c.maybeReorder()
		// The round's rings are registered for the round so sequences
		// already saved survive collections and reorders triggered by
		// the remaining EU fixpoints.
		var rings *Rings
		var rid int
		if keepRings {
			rings = &Rings{F: f, Result: z}
			rid = rings.register(m)
		}
		next := f
		nid := m.RegisterRefs(&next)
		for k := 0; k < nFair; k++ {
			eu, rs, _ := c.euApprox(f, m.And(z, h(k)), nil, keepRings, nil)
			if keepRings {
				rings.PerFair = append(rings.PerFair, rs)
			}
			next = m.And(next, c.EX(eu))
		}
		m.Unregister(nid)
		if keepRings {
			m.Unregister(rid)
		}
		next = m.And(next, z)
		if next == z {
			return z, rings
		}
		z = next
	}
}

// Fair returns the set of states from which some fair path begins
// (CheckFair(EG true)); it is cached. Without fairness constraints every
// state of a total structure qualifies, so True is returned.
func (c *Checker) Fair() bdd.Ref {
	if c.haveFair {
		return c.fairSet
	}
	if len(c.S.Fair) == 0 {
		c.fairSet = bdd.True
	} else {
		c.fairSet = c.S.M.Protect(c.fairEGSet(bdd.True))
	}
	c.haveFair = true
	return c.fairSet
}

// SeedFair installs a precomputed fair-states set, skipping the fair EG
// fixpoint that Fair would otherwise run — the warm-start path, where
// the set was restored from a disk record or carried over from a prior
// query. Call it after SetCareSet/UseReachableCareSet: installing a care
// set clears the fair cache.
func (c *Checker) SeedFair(fair bdd.Ref) {
	if c.haveFair {
		c.S.M.Unprotect(c.fairSet)
	}
	c.fairSet = c.S.M.Protect(fair)
	c.haveFair = true
}

// CachedFair peeks at the fair-set cache without computing anything.
func (c *Checker) CachedFair() (bdd.Ref, bool) { return c.fairSet, c.haveFair }

// FairEX computes EX f under fairness. The argument is registered across
// the (possibly reordering) fair-set computation.
func (c *Checker) FairEX(f bdd.Ref) bdd.Ref {
	if len(c.S.Fair) == 0 {
		return c.EX(f)
	}
	id := c.S.M.RegisterRefs(&f)
	fairSet := c.Fair()
	c.S.M.Unregister(id)
	return c.EX(c.S.M.And(f, fairSet))
}

// FairEU computes E[f U g] under fairness. It runs the fixpoint through
// the witness ring cache and returns the last ring, so a witness for
// the formula just checked descends the check's rings (Section 6)
// instead of recomputing them, until the next collection drops them.
func (c *Checker) FairEU(f, g bdd.Ref) bdd.Ref {
	rings, _ := c.FairEUApproxUntil(f, g, nil)
	return rings[len(rings)-1]
}

// FairEUApproxUntil is EUApproxUntil under fairness: the rings of
// E[f U g ∧ fair], for witnesses.
func (c *Checker) FairEUApproxUntil(f, g bdd.Ref, stop func(ring bdd.Ref) bool) ([]bdd.Ref, bool) {
	if len(c.S.Fair) == 0 {
		return c.EUApproxUntil(f, g, stop)
	}
	id := c.S.M.RegisterRefs(&f, &g)
	fairSet := c.Fair()
	c.S.M.Unregister(id)
	return c.EUApproxUntil(f, c.S.M.And(g, fairSet), stop)
}
