package mc

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// TestEUApproxUntilIsPrefix checks the early stop against the full ring
// sequence: EUApproxUntil returns exactly EUApprox's rings up to the
// first one satisfying stop (and true), or all of them and false when
// stop never fires. One checker serves every start state, so each call
// finds the rings earlier calls cached: it runs one fixpoint iteration
// per ring beyond the cached prefix, and a repeat runs none.
func TestEUApproxUntilIsPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(4669))
	for trial := 0; trial < 40; trial++ {
		e := kripke.RandomExplicit(r, 6+r.Intn(10), 1.5, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		c := New(s)
		pset, _ := s.AtomSet(ctl.Atom("p"))
		qset, _ := s.AtomSet(ctl.Atom("q"))
		_, full := c.EUApprox(pset, qset)
		for st := 0; st < e.N; st++ {
			state := kripke.IndexState(st, len(s.Vars))
			want := -1
			for i, ring := range full {
				if s.Holds(ring, state) {
					want = i
					break
				}
			}
			prefix := full
			if want >= 0 {
				prefix = full[:want+1]
			}
			for repeat := 0; repeat < 2; repeat++ {
				cached := c.euRings[euKey{pset, qset}]
				calls := 0
				before := c.Stats.EUIterations
				rings, stopped := c.EUApproxUntil(pset, qset, func(ring bdd.Ref) bool {
					calls++
					return s.Holds(ring, state)
				})
				if stopped != (want >= 0) {
					t.Fatalf("trial %d state %d: stopped = %v, first ring holding it = %d", trial, st, stopped, want)
				}
				if !equalRefs(rings, prefix) {
					t.Fatalf("trial %d state %d: rings %v, want the prefix %v", trial, st, rings, prefix)
				}
				if calls != len(rings) {
					t.Fatalf("trial %d state %d: stop called %d times for %d rings", trial, st, calls, len(rings))
				}
				// From the last cached ring, each ring takes one
				// iteration, and the full sequence one more to find that
				// the last ring is the fixpoint.
				wantIters := 0
				switch n := len(cached.rings); {
				case len(rings) > n:
					wantIters = len(rings) - max(n, 1)
					if !stopped {
						wantIters++
					}
				case !stopped && !cached.done:
					wantIters = 1
				}
				if iters := c.Stats.EUIterations - before; iters != uint64(wantIters) {
					t.Fatalf("trial %d state %d call %d: %d iterations past a cached prefix of %d rings to return %d, want %d",
						trial, st, repeat, iters, len(cached.rings), len(rings), wantIters)
				}
				if repeat == 1 && wantIters != 0 {
					t.Fatalf("trial %d state %d: a repeated call iterates", trial, st)
				}
			}
		}
		c.Close()
	}
}

// TestCheckSavesEURings checks that Check leaves the rings of the
// E[f U g] it computes in the witness ring cache. After checking a
// formula containing E[p U q], FairEUApproxUntil(p, q) returns
// EUApprox's rings of E[p U q ∧ fair] with no fixpoint iteration and
// one ring reuse. A collection drops the cache: the next call
// recomputes the same rings, one iteration per ring. Models with and
// without fairness constraints are covered.
func TestCheckSavesEURings(t *testing.T) {
	r := rand.New(rand.NewSource(1995))
	never := func(bdd.Ref) bool { return false }
	specs := []string{"E [ p U q ]", "AG (p -> E [ p U q ])", "EX E [ p U q ] | EG p"}
	var fair, unfair int
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 1.5, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		m := s.M
		c := New(s)
		spec := specs[trial%len(specs)]
		c.MustCheck(ctl.MustParse(spec))
		pset := c.MustCheck(ctl.Atom("p"))
		qset := c.MustCheck(ctl.Atom("q"))
		target := qset
		if len(s.Fair) > 0 {
			target = m.And(qset, c.Fair())
			fair++
		} else {
			unfair++
		}
		ref := New(s)
		_, want := ref.EUApprox(pset, target)
		for _, q := range want {
			m.Protect(q)
		}

		iters, reuses := c.Stats.EUIterations, c.Stats.RingReuses
		rings, stopped := c.FairEUApproxUntil(pset, qset, never)
		if stopped || !equalRefs(rings, want) {
			t.Fatalf("trial %d, %s: the check's cached rings %v (stopped %v), want EUApprox's %v", trial, spec, rings, stopped, want)
		}
		if c.Stats.EUIterations != iters || c.Stats.RingReuses != reuses+1 {
			t.Fatalf("trial %d, %s: witness rings after the check took %d EU iterations and %d ring reuses, want 0 and 1",
				trial, spec, c.Stats.EUIterations-iters, c.Stats.RingReuses-reuses)
		}

		m.GC()
		iters, reuses = c.Stats.EUIterations, c.Stats.RingReuses
		rings, _ = c.FairEUApproxUntil(pset, qset, never)
		if !equalRefs(rings, want) {
			t.Fatalf("trial %d, %s: rings recomputed after a collection differ from EUApprox's", trial, spec)
		}
		if got := c.Stats.EUIterations - iters; got != uint64(len(want)) || c.Stats.RingReuses != reuses {
			t.Fatalf("trial %d, %s: after a collection the call took %d EU iterations and %d ring reuses, want %d and 0",
				trial, spec, got, c.Stats.RingReuses-reuses, len(want))
		}
		for _, q := range want {
			m.Unprotect(q)
		}
		ref.Close()
		c.Close()
	}
	if fair == 0 || unfair == 0 {
		t.Fatalf("%d models with fairness constraints and %d without, want both > 0", fair, unfair)
	}
}

// TestSeededFairEGMatchesUnseeded checks that a witness FairEG started
// from the fixpoint a check left in the checker confirms it in exactly
// one outer round and returns the set and rings an unseeded run
// computes from f. The fixpoint gets there as the memo of a checked
// EG formula, as Fair's cached fair set, or through SeedFair.
func TestSeededFairEGMatchesUnseeded(t *testing.T) {
	r := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 2, []string{"p"}, trial%3, 0.3)
		s := kripke.FromExplicit(e)
		pset, _ := s.AtomSet(ctl.Atom("p"))
		for _, tc := range []struct {
			f    bdd.Ref
			spec *ctl.Formula
		}{
			{bdd.True, ctl.EG(ctl.True())},
			{pset, ctl.EG(ctl.Atom("p"))},
		} {
			unseeded := New(s)
			want, wantRings := unseeded.FairEG(tc.f)

			seeds := map[string]func(c *Checker){
				"checked EG": func(c *Checker) { c.MustCheck(tc.spec) },
			}
			if tc.f == bdd.True && len(s.Fair) > 0 {
				seeds["Fair"] = func(c *Checker) { c.Fair() }
				seeds["SeedFair"] = func(c *Checker) { c.SeedFair(want) }
			}
			for name, seed := range seeds {
				c := New(s)
				seed(c)
				for _, wantRounds := range []uint64{1, 0} {
					before, reuses := c.Stats.FairEGOuter, c.Stats.RingReuses
					got, rings := c.FairEG(tc.f)
					if rounds := c.Stats.FairEGOuter - before; rounds != wantRounds {
						t.Fatalf("trial %d, %s seed of %s: %d outer rounds, want %d", trial, name, tc.spec, rounds, wantRounds)
					}
					if reused := c.Stats.RingReuses - reuses; reused != 1-wantRounds {
						t.Fatalf("trial %d, %s seed of %s: %d ring reuses in a call of %d rounds", trial, name, tc.spec, reused, wantRounds)
					}
					if got != want || !equalRings(rings, wantRings) {
						t.Fatalf("trial %d, %s seed of %s: seeded result or rings differ from the unseeded run", trial, name, tc.spec)
					}
				}
				c.Close()
			}
			unseeded.Close()
		}
	}
}

// TestFairEGFromSupersetConverges seeds the witness iteration with plain
// EG f, a superset of the fair EG fixpoint on a model with fairness
// constraints, and checks that it reaches the same set and rings as the
// iteration from f.
func TestFairEGFromSupersetConverges(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	strict := 0
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 1.5, []string{"p"}, 1+trial%2, 0.2)
		s := kripke.FromExplicit(e)
		c := New(s)
		pset, _ := s.AtomSet(ctl.Atom("p"))
		want, wantRings := c.fairEG(pset, pset, true)
		eg := c.EG(pset)
		if !s.M.Implies(want, eg) {
			t.Fatalf("trial %d: fair EG p is not within EG p", trial)
		}
		if eg != want {
			strict++
		}
		got, rings := c.fairEG(pset, eg, true)
		if got != want || !equalRings(rings, wantRings) {
			t.Fatalf("trial %d: iteration from EG p differs from the one from p", trial)
		}
		c.Close()
	}
	if strict == 0 {
		t.Fatal("no trial seeded from a strict superset")
	}
}

// TestSetCareSetDropsRingCaches checks that installing a care set drops
// the ring caches: rings cached without one would otherwise answer the
// restricted checker's calls. After SetCareSet the checker must return
// the rings a checker built with that care set computes.
func TestSetCareSetDropsRingCaches(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	never := func(bdd.Ref) bool { return false }
	differ := 0
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 1.5, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		pset, _ := s.AtomSet(ctl.Atom("p"))
		qset, _ := s.AtomSet(ctl.Atom("q"))
		reach, _ := s.Reachable()
		c := New(s)
		free, _ := c.EUApproxUntil(pset, qset, never)
		_, freeEG := c.FairEG(pset)
		c.SetCareSet(reach)
		got, _ := c.EUApproxUntil(pset, qset, never)
		_, gotEG := c.FairEG(pset)

		ref := New(s)
		ref.SetCareSet(reach)
		want, _ := ref.EUApproxUntil(pset, qset, never)
		_, wantEG := ref.FairEG(pset)
		if !equalRefs(got, want) || !equalRings(gotEG, wantEG) {
			t.Fatalf("trial %d: rings after SetCareSet differ from a checker built with the care set", trial)
		}
		if !equalRefs(free, want) || !equalRings(freeEG, wantEG) {
			differ++
		}
		c.Close()
		ref.Close()
	}
	if differ == 0 {
		t.Fatal("no trial's care set changed the rings")
	}
}

// TestRingsCachedAcrossSifts extends a cached one-ring EU prefix, and
// computes FairEG's rings, while sifts fire at the fixpoint safe
// points. Before each measured call an explicit Reorder splits one
// current/next pair, so the first sift inside the call runs its group
// normalization before it sifts. The rings must be the ones a fresh
// checker computes afterwards, cached under the keys' refs: a repeat
// call with them runs no iteration.
func TestRingsCachedAcrossSifts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	never := func(bdd.Ref) bool { return false }
	aggressive := &bdd.ReorderOptions{GrowthTrigger: 1.0001, MinNodes: 1, MaxPasses: 1, MaxBlocks: 2, Window: 1}
	siftedEU, siftedEG := 0, 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		e := kripke.RandomExplicit(r, 12+r.Intn(8), 1.5, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		m := s.M
		pset, _ := s.AtomSet(ctl.Atom("p"))
		qset, _ := s.AtomSet(ctl.Atom("q"))
		c := New(s)
		ref := New(s)
		work := func() uint64 { return c.Stats.EUIterations + c.Stats.FairEGOuter }

		splitPair(m, s.Vars[0])
		c.EUApproxUntil(pset, qset, func(bdd.Ref) bool { return true })
		m.EnableAutoReorder(aggressive)
		before := m.Stats.Reorderings
		rings, _ := c.EUApproxUntil(pset, qset, never)
		m.DisableAutoReorder()
		if m.Stats.Reorderings != before {
			siftedEU++
			_, want := ref.EUApprox(pset, qset)
			w := work()
			again, _ := c.EUApproxUntil(pset, qset, never)
			if !equalRefs(rings, want) || !equalRefs(again, want) || work() != w {
				t.Fatalf("trial %d: EU rings extended across sifts are wrong or not cached under the key's refs", trial)
			}
		}

		splitPair(m, s.Vars[0])
		m.EnableAutoReorder(aggressive)
		before = m.Stats.Reorderings
		_, egRings := c.FairEG(pset)
		m.DisableAutoReorder()
		if m.Stats.Reorderings != before {
			siftedEG++
			_, want := ref.FairEG(pset)
			w := work()
			_, again := c.FairEG(pset)
			if !equalRings(egRings, want) || !equalRings(again, want) || work() != w {
				t.Fatalf("trial %d: FairEG rings computed across sifts are wrong or not cached under f's ref", trial)
			}
		}
		ref.Close()
		c.Close()
	}
	if siftedEU == 0 || siftedEG == 0 {
		t.Fatalf("sifts fired inside %d EU extensions and %d FairEG computations, want both > 0", siftedEU, siftedEG)
	}
}

// splitPair explicitly reorders m so that v's current and next copies
// are no longer adjacent: the next copy moves to whichever end of the
// order lies away from the current one. The next sift must then swap
// the pair adjacent again before it sifts.
func splitPair(m *bdd.Manager, v kripke.StateVar) {
	rest := make([]int, 0, m.NumVars())
	for _, x := range m.Order() {
		if x != v.Next {
			rest = append(rest, x)
		}
	}
	if rest[0] == v.Cur {
		m.Reorder(append(rest, v.Next))
	} else {
		m.Reorder(append([]int{v.Next}, rest...))
	}
}

func equalRings(a, b *Rings) bool {
	if a.F != b.F || a.Result != b.Result || len(a.PerFair) != len(b.PerFair) {
		return false
	}
	for k := range a.PerFair {
		if !equalRefs(a.PerFair[k], b.PerFair[k]) {
			return false
		}
	}
	return true
}

func equalRefs(a, b []bdd.Ref) bool {
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
