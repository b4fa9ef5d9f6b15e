package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Differential oracle for the disjunctive transition partition: on
// random interleaved models carrying all three transition
// representations, the disjunctive image must be BDD-identical to the
// monolithic path, and CheckInit must agree verdict-for-verdict and
// set-for-set (including fair models, so FairEG runs over the
// disjunctive preimage).

// randomInterleavedModel builds a random interleaved model: 2^nSched
// processes selected by scheduler bits, each driving its own data
// variables in its turn while the rest are framed. The monolithic
// relation, the per-variable conjunctive clusters and the per-process
// disjunctive components are all installed on the one structure.
func randomInterleavedModel(r *rand.Rand, nData, nSched, nfair int, opts ...bdd.Option) *kripke.Symbolic {
	names := make([]string, nData+nSched)
	for i := 0; i < nData; i++ {
		names[i] = fmt.Sprintf("v%d", i)
	}
	for i := 0; i < nSched; i++ {
		names[nData+i] = fmt.Sprintf("sch%d", i)
	}
	s := kripke.NewSymbolic(names, opts...)
	m := s.M

	randomFunc := func(n int) bdd.Ref {
		f := bdd.False
		for t := 0; t < 1+r.Intn(2); t++ {
			cube := bdd.True
			for i := 0; i < n; i++ {
				switch r.Intn(3) {
				case 0:
					cube = m.And(cube, m.Var(s.Vars[i].Cur))
				case 1:
					cube = m.And(cube, m.NVar(s.Vars[i].Cur))
				}
			}
			f = m.Or(f, cube)
		}
		return f
	}

	k := 1 << nSched
	guards := make([]bdd.Ref, k)
	for p := 0; p < k; p++ {
		g := bdd.True
		for bit := 0; bit < nSched; bit++ {
			v := s.Vars[nData+bit].Cur
			if p>>bit&1 == 1 {
				g = m.And(g, m.Var(v))
			} else {
				g = m.And(g, m.NVar(v))
			}
		}
		guards[p] = g
	}
	clusters := make([]bdd.Ref, nData)
	comps := make([]bdd.Ref, k)
	for p := range comps {
		comps[p] = guards[p]
	}
	for v := 0; v < nData; v++ {
		cl := bdd.False
		for p := 0; p < k; p++ {
			drive := m.Var(s.Vars[v].Cur) // framed unless owned
			if v%k == p {
				drive = randomFunc(nData)
			}
			step := m.Eq(m.Var(s.Vars[v].Next), drive)
			cl = m.Or(cl, m.And(guards[p], step))
			comps[p] = m.And(comps[p], step)
		}
		clusters[v] = cl
	}
	mono := bdd.True
	for _, cl := range clusters {
		mono = m.And(mono, cl)
	}
	s.SetTrans(mono)
	s.SetClusters(clusters)
	s.SetDisjuncts(comps, nil)
	init := randomFunc(nData + nSched)
	if init == bdd.False {
		init = bdd.True
	}
	s.Init = m.Protect(init)
	for f := 0; f < nfair; f++ {
		s.AddFairness(fmt.Sprintf("h%d", f),
			m.Or(randomFunc(nData), m.Var(s.Vars[r.Intn(len(s.Vars))].Cur)))
	}
	return s
}

func TestDisjunctPreimageDifferentialOracle(t *testing.T) {
	for _, mode := range complementModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			testDisjunctPreimage(t, mode.opts)
		})
	}
}

func testDisjunctPreimage(t *testing.T, opts []bdd.Option) {
	r := rand.New(rand.NewSource(6823))
	for trial := 0; trial < 100; trial++ {
		s := randomInterleavedModel(r, 3+r.Intn(3), 1+r.Intn(2), 0, opts...)
		for i := 0; i < 4; i++ {
			set := randomStateSet(r, s)
			s.EnableDisjunct(true)
			preD := s.Preimage(set)
			imgD := s.Image(set)
			s.EnableDisjunct(false)
			s.EnablePartition(false)
			preM := s.Preimage(set)
			imgM := s.Image(set)
			s.EnablePartition(true)
			if preD != preM {
				t.Fatalf("trial %d: disjunctive Preimage differs from monolithic oracle", trial)
			}
			if imgD != imgM {
				t.Fatalf("trial %d: disjunctive Image differs from monolithic oracle", trial)
			}
		}
	}
}

func TestDisjunctCheckInitDifferentialOracle(t *testing.T) {
	for _, mode := range complementModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			testDisjunctCheckInit(t, mode.opts)
		})
	}
}

func testDisjunctCheckInit(t *testing.T, opts []bdd.Option) {
	r := rand.New(rand.NewSource(9157))
	for trial := 0; trial < 60; trial++ {
		// trial%3 fairness sets: FairEG must work unchanged over the
		// disjunctive image.
		s := randomInterleavedModel(r, 3+r.Intn(2), 1, trial%3, opts...)
		atoms := s.VarNames()[:2]

		s.EnableDisjunct(true)
		cd := New(s) // disjunctive checker
		type probe struct {
			f       string
			verdict bool
			set     bdd.Ref
		}
		var probes []probe
		for i := 0; i < 5; i++ {
			f := randomFormula(r, atoms, 3)
			ok, set, err := cd.CheckInit(f)
			if err != nil {
				t.Fatalf("disjunctive CheckInit(%s): %v", f, err)
			}
			probes = append(probes, probe{f.String(), ok, set})
		}
		// Propositional-only formula draws make no preimage calls; when
		// one happened it must have routed through the disjuncts.
		if cd.Stats.PreimageCalls > 0 && cd.Stats.DisjunctSteps == 0 {
			t.Fatalf("trial %d: preimages ran but no disjunct steps counted", trial)
		}

		s.EnableDisjunct(false)
		s.EnablePartition(false)
		cm := New(s) // monolithic checker over the same structure
		for _, want := range probes {
			f := ctl.MustParse(want.f)
			ok, set, err := cm.CheckInit(f)
			if err != nil {
				t.Fatalf("monolithic CheckInit(%s): %v", want.f, err)
			}
			if ok != want.verdict {
				t.Fatalf("trial %d: verdict differs on %s: disjunctive=%v monolithic=%v",
					trial, want.f, want.verdict, ok)
			}
			if set != want.set {
				t.Fatalf("trial %d: satisfaction set differs on %s", trial, want.f)
			}
		}
		s.EnablePartition(true)
	}
}
