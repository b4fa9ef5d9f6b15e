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
// stop never fires, and it runs one fixpoint iteration per ring it
// adds beyond the first.
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
			calls := 0
			before := c.Stats.EUIterations
			rings, stopped := c.EUApproxUntil(pset, qset, func(ring bdd.Ref) bool {
				calls++
				return s.Holds(ring, state)
			})
			if stopped != (want >= 0) {
				t.Fatalf("trial %d state %d: stopped = %v, first ring holding it = %d", trial, st, stopped, want)
			}
			prefix := full
			if want >= 0 {
				prefix = full[:want+1]
				if iters := c.Stats.EUIterations - before; iters != uint64(want) {
					t.Fatalf("trial %d state %d: %d iterations to reach ring %d", trial, st, iters, want)
				}
			}
			if !equalRefs(rings, prefix) {
				t.Fatalf("trial %d state %d: rings %v, want the prefix %v", trial, st, rings, prefix)
			}
			if calls != len(rings) {
				t.Fatalf("trial %d state %d: stop called %d times for %d rings", trial, st, calls, len(rings))
			}
		}
		c.Close()
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
				before := c.Stats.FairEGOuter
				got, rings := c.FairEG(tc.f)
				if rounds := c.Stats.FairEGOuter - before; rounds != 1 {
					t.Fatalf("trial %d, %s seed of %s: %d outer rounds, want 1", trial, name, tc.spec, rounds)
				}
				if got != want || !equalRings(rings, wantRings) {
					t.Fatalf("trial %d, %s seed of %s: seeded result or rings differ from the unseeded run", trial, name, tc.spec)
				}
				rings.Release(s.M)
				c.Close()
			}
			wantRings.Release(s.M)
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
		rings.Release(s.M)
		wantRings.Release(s.M)
		c.Close()
	}
	if strict == 0 {
		t.Fatal("no trial seeded from a strict superset")
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
