package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Differential oracle for the partitioned transition relation: on random
// factored Kripke structures, the clustered early-quantification path
// must be BDD-identical to the monolithic ∃v′. Trans ∧ f′ — for raw
// Preimage/Image on random state sets, and verdict-for-verdict for
// CheckInit on random CTL formulas.

// complementModes parametrizes the differential oracles by node
// representation: every oracle runs once on a complement-edge manager
// and once on the structural reference (DisableComplementEdges), with
// identical random streams, so the two representations are checked
// against the monolithic oracle under the exact same workload.
var complementModes = []struct {
	name string
	opts []bdd.Option
}{
	{"comp", nil},
	{"nocomp", []bdd.Option{bdd.DisableComplementEdges()}},
}

// randomFactoredModel builds a random model through the Builder so a
// conjunctive partition is installed: each variable gets a random
// next-state function (deterministic, delayed-choice, or free), and the
// structure optionally carries random fairness constraints. The
// per-variable constraints keep the relation total by construction.
func randomFactoredModel(r *rand.Rand, nvars, nfair int, opts ...bdd.Option) *kripke.Symbolic {
	names := make([]string, nvars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	b := kripke.NewBuilder(names, opts...)
	m := b.S.M

	// randomFunc: a random boolean function over a couple of current-state
	// variables — small supports give the affinity pass something to chew.
	randomFunc := func() bdd.Ref {
		f := bdd.False
		terms := 1 + r.Intn(2)
		for t := 0; t < terms; t++ {
			cube := bdd.True
			for _, name := range names {
				switch r.Intn(4) {
				case 0:
					cube = m.And(cube, b.Cur(name))
				case 1:
					cube = m.And(cube, m.Not(b.Cur(name)))
				}
			}
			f = m.Or(f, cube)
		}
		return f
	}

	for _, name := range names {
		switch r.Intn(4) {
		case 0, 1:
			b.NextFunc(name, randomFunc())
		case 2:
			b.NextChoice(name, randomFunc())
		default:
			b.NextFree(name)
		}
		if r.Intn(2) == 0 {
			b.InitValue(name, r.Intn(2) == 0)
		}
	}
	for k := 0; k < nfair; k++ {
		// Nonempty fairness set: a random function or'd with one minterm.
		b.AddFairness(fmt.Sprintf("h%d", k), m.Or(randomFunc(), b.Cur(names[r.Intn(nvars)])))
	}
	return b.Finish()
}

// randomStateSet builds a random union of partial cubes over the
// current-state variables.
func randomStateSet(r *rand.Rand, s *kripke.Symbolic) bdd.Ref {
	m := s.M
	set := bdd.False
	for i := 0; i < 1+r.Intn(3); i++ {
		cube := bdd.True
		for _, v := range s.Vars {
			switch r.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v.Cur))
			case 1:
				cube = m.And(cube, m.NVar(v.Cur))
			}
		}
		set = m.Or(set, cube)
	}
	return set
}

func TestPartitionedPreimageDifferentialOracle(t *testing.T) {
	for _, mode := range complementModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(4711))
			trials := 200
			partitioned := 0
			for trial := 0; trial < trials; trial++ {
				s := randomFactoredModel(r, 3+r.Intn(4), trial%3, mode.opts...)
				if s.NumClusters() > 1 {
					partitioned++
				}
				for i := 0; i < 4; i++ {
					set := randomStateSet(r, s)
					s.EnablePartition(true)
					prePart := s.Preimage(set)
					imgPart := s.Image(set)
					s.EnablePartition(false)
					preMono := s.Preimage(set)
					imgMono := s.Image(set)
					s.EnablePartition(true)
					if prePart != preMono {
						t.Fatalf("trial %d: partitioned Preimage differs from monolithic oracle", trial)
					}
					if imgPart != imgMono {
						t.Fatalf("trial %d: partitioned Image differs from monolithic oracle", trial)
					}
				}
			}
			if partitioned < trials/2 {
				t.Fatalf("only %d/%d random models got a partition — generator too weak", partitioned, trials)
			}
		})
	}
}

func TestPartitionedCheckInitDifferentialOracle(t *testing.T) {
	for _, mode := range complementModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			testPartitionedCheckInit(t, mode.opts)
		})
	}
}

func testPartitionedCheckInit(t *testing.T, opts []bdd.Option) {
	r := rand.New(rand.NewSource(2718))
	atomsFor := func(s *kripke.Symbolic) []string {
		names := s.VarNames()
		if len(names) > 2 {
			names = names[:2]
		}
		return names
	}
	for trial := 0; trial < 120; trial++ {
		s := randomFactoredModel(r, 3+r.Intn(3), trial%3, opts...)
		atoms := atomsFor(s)
		formulas := make([]*struct {
			f       string
			verdict bool
			set     bdd.Ref
		}, 0, 5)
		cp := New(s) // partitioned checker
		for i := 0; i < 5; i++ {
			f := randomFormula(r, atoms, 3)
			ok, set, err := cp.CheckInit(f)
			if err != nil {
				t.Fatalf("partitioned CheckInit(%s): %v", f, err)
			}
			formulas = append(formulas, &struct {
				f       string
				verdict bool
				set     bdd.Ref
			}{f.String(), ok, set})
		}
		s.EnablePartition(false)
		cm := New(s) // monolithic checker over the same structure
		for _, want := range formulas {
			f := ctl.MustParse(want.f)
			ok, set, err := cm.CheckInit(f)
			if err != nil {
				t.Fatalf("monolithic CheckInit(%s): %v", want.f, err)
			}
			if ok != want.verdict {
				t.Fatalf("trial %d: verdict differs on %s: partitioned=%v monolithic=%v",
					trial, want.f, want.verdict, ok)
			}
			if set != want.set {
				t.Fatalf("trial %d: satisfaction set differs on %s", trial, want.f)
			}
		}
		s.EnablePartition(true)
	}
}
