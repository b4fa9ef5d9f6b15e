package kripke

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// buildInterleaved constructs a random interleaved model over nData
// data variables and nSched scheduler bits (2^nSched processes) and
// installs all three transition representations on one structure: the
// monolithic relation (SetTrans), the conjunctive per-variable clusters
// (SetClusters) and the per-process disjunctive components
// (SetDisjuncts). Process p owns the data variables v with
// v mod 2^nSched == p; in its turn it drives them with random functions
// of the current state while every other data variable is framed. The
// scheduler bits themselves are unconstrained (nondeterministic
// scheduler). By construction
//
//	⋀_v cluster_v = ⋁_p comp_p
//
// since the process guards are mutually exclusive and exhaustive.
func buildInterleaved(r *rand.Rand, nData, nSched int) *Symbolic {
	names := make([]string, nData+nSched)
	for i := 0; i < nData; i++ {
		names[i] = "d" + string(rune('0'+i))
	}
	for i := 0; i < nSched; i++ {
		names[nData+i] = "s" + string(rune('0'+i))
	}
	s := NewSymbolic(names)
	m := s.M

	k := 1 << nSched
	guards := make([]bdd.Ref, k)
	for p := 0; p < k; p++ {
		g := bdd.True
		for b := 0; b < nSched; b++ {
			v := s.Vars[nData+b].Cur
			if p>>b&1 == 1 {
				g = m.And(g, m.Var(v))
			} else {
				g = m.And(g, m.NVar(v))
			}
		}
		guards[p] = g
	}

	// next[v][p]: the function process p drives variable v with.
	next := make([][]bdd.Ref, nData)
	for v := 0; v < nData; v++ {
		next[v] = make([]bdd.Ref, k)
		frame := m.Var(s.Vars[v].Cur)
		for p := 0; p < k; p++ {
			if v%k == p {
				next[v][p] = randomStateFunc(r, s, nData)
			} else {
				next[v][p] = frame
			}
		}
	}

	clusters := make([]bdd.Ref, nData)
	for v := 0; v < nData; v++ {
		cl := bdd.False
		for p := 0; p < k; p++ {
			cl = m.Or(cl, m.And(guards[p], m.Eq(m.Var(s.Vars[v].Next), next[v][p])))
		}
		clusters[v] = cl
	}
	comps := make([]bdd.Ref, k)
	for p := 0; p < k; p++ {
		c := guards[p]
		for v := 0; v < nData; v++ {
			c = m.And(c, m.Eq(m.Var(s.Vars[v].Next), next[v][p]))
		}
		comps[p] = c
	}
	mono := bdd.True
	for _, cl := range clusters {
		mono = m.And(mono, cl)
	}

	s.SetTrans(mono)
	s.SetClusters(clusters)
	s.SetDisjuncts(comps)

	init := randomStateFunc(r, s, nData+nSched)
	if init == bdd.False {
		init = bdd.True
	}
	s.Init = m.Protect(init)
	return s
}

// randomStateFunc builds a random function over the first n current
// state variables.
func randomStateFunc(r *rand.Rand, s *Symbolic, n int) bdd.Ref {
	m := s.M
	f := bdd.False
	for t := 0; t < 1+r.Intn(3); t++ {
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

// randomStateSet builds a random set over all current state variables.
func randomStateSet(r *rand.Rand, s *Symbolic) bdd.Ref {
	return randomStateFunc(r, s, len(s.Vars))
}

// imageModes computes Image and Preimage of set under all three
// strategies and fails the test if any pair disagrees.
func checkImageModes(t *testing.T, s *Symbolic, set bdd.Ref, tag string) {
	t.Helper()
	s.EnableDisjunct(true)
	imgD, preD := s.Image(set), s.Preimage(set)
	s.EnableDisjunct(false)
	imgC, preC := s.Image(set), s.Preimage(set)
	s.EnablePartition(false)
	imgM, preM := s.Image(set), s.Preimage(set)
	s.EnablePartition(true)
	if imgD != imgM || imgC != imgM {
		t.Fatalf("%s: Image differs (disj=%v conj=%v mono=%v)", tag, imgD, imgC, imgM)
	}
	if preD != preM || preC != preM {
		t.Fatalf("%s: Preimage differs (disj=%v conj=%v mono=%v)", tag, preD, preC, preM)
	}
}

func TestDisjunctImageMatchesMonolithic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		s := buildInterleaved(r, 4, 1+r.Intn(2))
		if s.NumDisjuncts() == 0 {
			t.Fatal("no disjuncts installed")
		}
		for probe := 0; probe < 5; probe++ {
			checkImageModes(t, s, randomStateSet(r, s), "seq")
		}
	}
}

func TestDisjunctReachableAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		s := buildInterleaved(r, 5, 1+r.Intn(2))
		s.EnableDisjunct(true)
		reachD, _ := s.Reachable()
		s.EnableDisjunct(false)
		reachC, _ := s.Reachable()
		s.EnablePartition(false)
		reachM, _ := s.Reachable()
		s.EnablePartition(true)
		if reachD != reachM || reachC != reachM {
			t.Fatalf("trial %d: reachability differs (disj=%v conj=%v mono=%v)",
				trial, reachD, reachC, reachM)
		}
	}
}

// TestReachableCountsOneImagePerRound: on an interleaved model the
// three shapes of the relation reach the same set, and each counts one
// image per round it reports.
func TestReachableCountsOneImagePerRound(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	s := buildInterleaved(r, 5, 2)
	var want bdd.Ref
	for i, shape := range []struct {
		name       string
		disj, part bool
	}{
		{"disjunctive", true, true},
		{"conjunctive", false, true},
		{"monolithic", false, false},
	} {
		s.EnableDisjunct(shape.disj)
		s.EnablePartition(shape.part)
		s.ResetRelStats()
		reach, iters := s.Reachable()
		if iters == 0 {
			t.Fatalf("%s: no rounds from a non-empty initial set", shape.name)
		}
		if got := s.RelStats().ImageCalls; got != uint64(iters) {
			t.Errorf("%s: %d image calls over %d reported iterations", shape.name, got, iters)
		}
		if i == 0 {
			want = s.M.Protect(reach)
		} else if reach != want {
			t.Errorf("%s: reachable set differs from the disjunctive one", shape.name)
		}
	}
}

func TestDisjunctPrecedenceAndToggle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	s := buildInterleaved(r, 3, 1)
	if s.DisjunctEnabled() {
		t.Fatal("disjunctive mode must start disabled")
	}
	if !s.PartitionEnabled() {
		t.Fatal("conjunctive partition should be active by default")
	}
	s.EnableDisjunct(true)
	if !s.DisjunctEnabled() {
		t.Fatal("toggle on failed")
	}
	// Disjunct wins over the (still installed) conjunctive partition.
	set := randomStateSet(r, s)
	s.ResetRelStats()
	s.Image(set)
	if s.RelStats().DisjunctSteps == 0 {
		t.Fatal("disjunctive image did not run while enabled")
	}
	s.EnableDisjunct(false)
	s.ResetRelStats()
	s.Image(set)
	if s.RelStats().DisjunctSteps != 0 {
		t.Fatal("disjunctive image ran while disabled")
	}
}

func TestSetDisjunctsRemoval(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	s := buildInterleaved(r, 3, 1)
	if s.NumDisjuncts() == 0 {
		t.Fatal("expected disjuncts")
	}
	s.SetDisjuncts(nil)
	if s.NumDisjuncts() != 0 || s.Disjunct() != nil {
		t.Fatal("disjuncts should be removed")
	}
	if s.DisjunctEnabled() {
		t.Fatal("removal must disable the disjunctive path")
	}
}

func TestDisjunctTransMaterialization(t *testing.T) {
	// A structure carrying only disjuncts: Trans() must materialize the
	// union of the components on demand.
	s := NewSymbolic([]string{"x", "y"})
	m := s.M
	x, y := s.Vars[0], s.Vars[1]
	compA := m.And(m.Var(x.Cur), m.Eq(m.Var(y.Next), m.NVar(y.Cur)))
	compB := m.And(m.NVar(x.Cur), m.Eq(m.Var(y.Next), m.Var(y.Cur)))
	s.SetDisjuncts([]bdd.Ref{compA, compB})
	want := m.Or(compA, compB)
	if got := s.Trans(); got != want {
		t.Fatalf("Trans() = %v, want OR of components %v", got, want)
	}
}

// TestRemovingDisjunctsPinsTrans: removing the only partition of a
// structure whose monolithic relation is still deferred keeps that
// relation, as removing clusters does.
func TestRemovingDisjunctsPinsTrans(t *testing.T) {
	s := NewSymbolic([]string{"x", "y"})
	m := s.M
	x, y := s.Vars[0], s.Vars[1]
	compA := m.And(m.Var(x.Cur), m.Eq(m.Var(y.Next), m.NVar(y.Cur)))
	compB := m.And(m.NVar(x.Cur), m.Eq(m.Var(y.Next), m.Var(y.Cur)))
	s.SetDisjuncts([]bdd.Ref{compA, compB})
	s.SetDisjuncts(nil)
	if s.Trans() != m.Or(compA, compB) {
		t.Fatal("Trans() lost the relation of the removed components")
	}
}

func TestDisjunctHasEdgePointwise(t *testing.T) {
	// Only disjuncts installed, monolithic deferred: HasEdge must decide
	// edges through the components without materializing Trans.
	r := rand.New(rand.NewSource(61))
	names := []string{"a", "b", "s0"}
	s := NewSymbolic(names)
	m := s.M
	// comp0 (s0=0): a' = ¬a, b framed; comp1 (s0=1): b' = a∧b, a framed.
	g0, g1 := m.NVar(s.Vars[2].Cur), m.Var(s.Vars[2].Cur)
	comp0 := m.And(g0, m.And(
		m.Eq(m.Var(s.Vars[0].Next), m.NVar(s.Vars[0].Cur)),
		m.Eq(m.Var(s.Vars[1].Next), m.Var(s.Vars[1].Cur))))
	comp1 := m.And(g1, m.And(
		m.Eq(m.Var(s.Vars[1].Next), m.And(m.Var(s.Vars[0].Cur), m.Var(s.Vars[1].Cur))),
		m.Eq(m.Var(s.Vars[0].Next), m.Var(s.Vars[0].Cur))))
	s.SetDisjuncts([]bdd.Ref{comp0, comp1})
	mono := m.Or(comp0, comp1)
	for trial := 0; trial < 64; trial++ {
		from := State{r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1}
		to := State{r.Intn(2) == 1, r.Intn(2) == 1, r.Intn(2) == 1}
		env := make([]bool, m.NumVars())
		for i, v := range s.Vars {
			env[v.Cur] = from[i]
			env[v.Next] = to[i]
		}
		if got, want := s.HasEdge(from, to), m.Eval(mono, env); got != want {
			t.Fatalf("HasEdge(%v,%v) = %v, want %v", from, to, got, want)
		}
	}
}

func TestDisjunctRelStatsTruthful(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	s := buildInterleaved(r, 4, 2)
	s.EnableDisjunct(true)

	s.ResetRelStats()
	s.Reachable()
	rs := s.RelStats()
	if rs.DisjunctSteps == 0 {
		t.Fatal("disjunct steps not counted")
	}
	if rs.ClusterSteps < rs.DisjunctSteps {
		t.Fatal("ClusterSteps must include disjunct steps")
	}
	if rs.PeakLiveNodes == 0 {
		t.Fatal("peak live nodes not sampled on the disjunctive path")
	}
}

func TestDisjunctSurvivesReorder(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	s := buildInterleaved(r, 5, 1)
	s.EnableDisjunct(true)
	set := s.M.Protect(randomStateSet(r, s))
	imgBefore := s.M.Protect(s.Image(set))

	// Force a committed reorder; the components and cubes must come
	// through it.
	n := s.M.NumVars()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Reverse the pair blocks (pairs stay adjacent for the groups).
	for i := 0; i < n/2; i++ {
		j := n/2 - 1 - i
		order[2*i], order[2*i+1] = 2*j, 2*j+1
	}
	s.M.Reorder(order)

	if got := s.Image(set); got != imgBefore {
		t.Fatal("disjunctive image changed across a reorder")
	}
}

// FuzzImageDifferential cross-checks the three image strategies —
// disjunctive, conjunctive, monolithic — on random interleaved models.
func FuzzImageDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(2))
	f.Add(int64(99), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nSched uint8) {
		ns := int(nSched)%2 + 1 // 1 or 2 scheduler bits
		r := rand.New(rand.NewSource(seed))
		s := buildInterleaved(r, 3+r.Intn(3), ns)
		for probe := 0; probe < 3; probe++ {
			set := randomStateSet(r, s)
			s.EnableDisjunct(true)
			imgD, preD := s.Image(set), s.Preimage(set)
			s.EnableDisjunct(false)
			s.EnablePartition(false)
			imgM, preM := s.Image(set), s.Preimage(set)
			s.EnablePartition(true)
			if imgD != imgM {
				t.Fatalf("disjunctive Image differs from monolithic (seed=%d)", seed)
			}
			if preD != preM {
				t.Fatalf("disjunctive Preimage differs from monolithic (seed=%d)", seed)
			}
			imgC, preC := s.Image(set), s.Preimage(set)
			if imgC != imgM || preC != preM {
				t.Fatalf("conjunctive image differs from monolithic (seed=%d)", seed)
			}
		}
		s.EnableDisjunct(true)
		reachD, _ := s.Reachable()
		s.EnableDisjunct(false)
		s.EnablePartition(false)
		reachM, _ := s.Reachable()
		s.EnablePartition(true)
		if reachD != reachM {
			t.Fatalf("disjunctive reachability differs (seed=%d)", seed)
		}
	})
}
