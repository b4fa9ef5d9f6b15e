package mc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// reload saves the roots and fair with SaveNamed and loads them into
// the manager of t, another structure built from the same explicit
// model, returning the loaded fair set and checker roots.
func reload(tb testing.TB, from, to *kripke.Symbolic, fair bdd.Ref, roots []bdd.NamedRoot) (bdd.Ref, []bdd.NamedRoot) {
	tb.Helper()
	var buf bytes.Buffer
	if err := from.M.SaveNamed(&buf, append([]bdd.NamedRoot{{Name: "fair", Ref: fair}}, roots...)); err != nil {
		tb.Fatal(err)
	}
	loaded, err := to.M.LoadNamed(&buf, true)
	if err != nil {
		tb.Fatal(err)
	}
	return loaded[0].Ref, loaded[1:]
}

// TestStateRoundTrip checks that a checker restored from another
// checker's exported state, through a saved file into a fresh manager,
// answers the exported checks and witness ring requests with the sets
// and rings a fresh checker computes there, without an EU or EG
// iteration, a fair-EG round or a preimage. Models with and without
// fairness constraints are covered.
func TestStateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1995))
	never := func(bdd.Ref) bool { return false }
	specs := []string{"E [ p U q ]", "AG (p -> AF q)", "EX E [ p U q ] | EG p", "AG EF q"}
	var fair, unfair int
	for trial := 0; trial < 30; trial++ {
		e := kripke.RandomExplicit(r, 8+r.Intn(8), 1.5, []string{"p", "q"}, trial%2, 0.3)
		if len(e.Fair) > 0 {
			fair++
		} else {
			unfair++
		}
		a := kripke.FromExplicit(e)
		ca := New(a)
		for _, sp := range specs {
			ca.MustCheck(ctl.MustParse(sp))
		}
		pa := ca.MustCheck(ctl.Atom("p"))
		qa := ca.MustCheck(ctl.Atom("q"))
		ca.FairEG(pa)
		ca.FairEUApproxUntil(qa, pa, func(q bdd.Ref) bool { return q != pa }) // a prefix that is not done
		state := ca.ExportState()

		b := kripke.FromExplicit(e)
		cb := New(b)
		fairB, roots := reload(t, a, b, ca.Fair(), state)
		cb.SeedFair(fairB)
		sets, rings, err := cb.RestoreState(roots)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantRings := 0
		for _, p := range ca.euRings {
			wantRings += len(p.rings)
		}
		for _, rs := range ca.egRings {
			for _, q := range rs.PerFair {
				wantRings += len(q)
			}
		}
		if sets != len(ca.memo)+len(ca.egSets) || rings != wantRings {
			t.Fatalf("trial %d: restored %d sets and %d rings, exported %d and %d",
				trial, sets, rings, len(ca.memo)+len(ca.egSets), wantRings)
		}

		ref := New(b)
		for _, sp := range specs {
			if got, want := cb.MustCheck(ctl.MustParse(sp)), ref.MustCheck(ctl.MustParse(sp)); got != want {
				t.Fatalf("trial %d: restored %s differs from a fresh check", trial, sp)
			}
		}
		pb, qb := ref.MustCheck(ctl.Atom("p")), ref.MustCheck(ctl.Atom("q"))
		gotEU, _ := cb.FairEUApproxUntil(pb, qb, never)
		wantEU, _ := ref.FairEUApproxUntil(pb, qb, never)
		gotSet, gotEG := cb.FairEG(pb)
		wantSet, wantEG := ref.FairEG(pb)
		if !equalRefs(gotEU, wantEU) || gotSet != wantSet || !equalRings(gotEG, wantEG) {
			t.Fatalf("trial %d: restored rings differ from fresh ones", trial)
		}
		if st := cb.Stats; st.EUIterations != 0 || st.EGIterations != 0 || st.FairEGOuter != 0 || st.PreimageCalls != 0 {
			t.Fatalf("trial %d: the restored checker ran %d EU iterations, %d EG iterations, %d fair-EG rounds and %d preimages",
				trial, st.EUIterations, st.EGIterations, st.FairEGOuter, st.PreimageCalls)
		}
		// The restored rings belong to the load's epoch: a collection
		// drops them, and the recomputed rings are the same.
		for _, q := range wantEU {
			b.M.Protect(q)
		}
		b.M.GC()
		again, _ := cb.FairEUApproxUntil(pb, qb, never)
		if !equalRefs(again, wantEU) || cb.Stats.EUIterations == 0 {
			t.Fatalf("trial %d: rings after a collection: %v recomputed in %d iterations, want %v",
				trial, again, cb.Stats.EUIterations, wantEU)
		}
		for _, q := range wantEU {
			b.M.Unprotect(q)
		}
		ca.Close()
		cb.Close()
		ref.Close()
	}
	if fair == 0 || unfair == 0 {
		t.Fatalf("%d models with fairness constraints and %d without, want both > 0", fair, unfair)
	}
}

// TestExportStateSkipsLongMemoKeys checks that a memo entry whose root
// name would exceed bdd.MaxSavedNameLen stays out of the export, and
// that the export still saves.
func TestExportStateSkipsLongMemoKeys(t *testing.T) {
	e := kripke.RandomExplicit(rand.New(rand.NewSource(7)), 8, 1.5, []string{"p"}, 0, 0.3)
	s := kripke.FromExplicit(e)
	c := New(s)
	long := ctl.MustParse(strings.Repeat("EX ", 1400) + "p")
	c.MustCheck(long)
	state := c.ExportState()
	if len(state) == 0 || len(state) >= len(c.memo) {
		t.Fatalf("exported %d roots for %d memo entries, want some left out", len(state), len(c.memo))
	}
	for _, r := range state {
		if len(r.Name) > bdd.MaxSavedNameLen {
			t.Fatalf("exported a root name of %d bytes", len(r.Name))
		}
	}
	if err := s.M.SaveNamed(&bytes.Buffer{}, state); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreStateRefusesMalformed checks that malformed roots are
// refused as a whole: the error comes back and the checker gains no
// memo entry, EG seed or ring.
func TestRestoreStateRefusesMalformed(t *testing.T) {
	e := kripke.RandomExplicit(rand.New(rand.NewSource(11)), 12, 1.5, []string{"p", "q"}, 1, 0.3)
	s := kripke.FromExplicit(e)
	c := New(s)
	c.MustCheck(ctl.MustParse("AG (p -> EF q) & EG p"))
	pset := c.MustCheck(ctl.Atom("p"))
	c.FairEG(pset)
	state := c.ExportState()
	has := map[string]bool{}
	group := "" // an EU ring group with two rings or more
	for _, r := range state {
		has[r.Name] = true
		if g, ok := strings.CutSuffix(r.Name, "/ring/1"); ok && strings.HasPrefix(g, "eu/") {
			group = g
		}
	}
	for _, name := range []string{group + "/f", "eg/0/set", "fg/0/ring/0/0"} {
		if !has[name] {
			t.Fatalf("export lacks %q: %v", name, state)
		}
	}
	without := func(name string) []bdd.NamedRoot {
		var out []bdd.NamedRoot
		for _, r := range state {
			if r.Name != name {
				out = append(out, r)
			}
		}
		return out
	}
	with := func(extra ...bdd.NamedRoot) []bdd.NamedRoot {
		return append(state[:len(state):len(state)], extra...)
	}
	cases := map[string][]bdd.NamedRoot{
		"ring group without its key": without(group + "/f"),
		"gap in ring indices":        without(group + "/ring/0"),
		"EG seed without its set":    without("eg/0/set"),
		"fair EG rings with a gap":   without("fg/0/ring/0/0"),
		"unknown prefix":             with(bdd.NamedRoot{Name: "zz/0/f", Ref: bdd.True}),
		"unknown field":              with(bdd.NamedRoot{Name: "eu/0/g", Ref: bdd.True}),
		"leading zero":               with(bdd.NamedRoot{Name: "eu/00/f", Ref: bdd.True}),
		"repeated name":              with(state[0]),
		"empty memo key":             with(bdd.NamedRoot{Name: "memo/", Ref: bdd.True}),
	}
	for name, roots := range cases {
		fresh := New(s)
		sets, rings, err := fresh.RestoreState(roots)
		if err == nil || sets != 0 || rings != 0 {
			t.Fatalf("%s: restored %d sets and %d rings, err %v; want an error", name, sets, rings, err)
		}
		if len(fresh.memo) != 0 || len(fresh.egSets) != 0 || len(fresh.euRings) != 0 || len(fresh.egRings) != 0 {
			t.Fatalf("%s: a refused state left entries behind", name)
		}
		fresh.Close()
	}
	if _, _, err := New(s).RestoreState(state); err != nil {
		t.Fatalf("the unbroken state: %v", err)
	}
}
