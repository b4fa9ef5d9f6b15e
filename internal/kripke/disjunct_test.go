package kripke

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// interleaved is a random interleaved model: a structure carrying its
// disjunctive partition, as the SMV compiler installs for a process
// model, and both partitions of its relation, protected, so a test can
// install either.
type interleaved struct {
	s               *Symbolic
	clusters, comps []bdd.Ref
}

// buildInterleaved constructs a random interleaved model over nData
// data variables and nSched scheduler bits (2^nSched processes). Process
// p owns the data variables v with v mod 2^nSched == p; in its turn it
// drives them with random functions of the current state while every
// other data variable is framed. The scheduler bits themselves are
// unconstrained (nondeterministic scheduler). The conjunctive partition
// has one cluster per data variable, the disjunctive one component per
// process; by construction
//
//	⋀_v cluster_v = ⋁_p comp_p
//
// since the process guards are mutually exclusive and exhaustive.
func buildInterleaved(r *rand.Rand, nData, nSched int) *interleaved {
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

	iv := &interleaved{s: s}
	for v := 0; v < nData; v++ {
		cl := bdd.False
		for p := 0; p < k; p++ {
			cl = m.Or(cl, m.And(guards[p], m.Eq(m.Var(s.Vars[v].Next), next[v][p])))
		}
		iv.clusters = append(iv.clusters, m.Protect(cl))
	}
	for p := 0; p < k; p++ {
		c := guards[p]
		for v := 0; v < nData; v++ {
			c = m.And(c, m.Eq(m.Var(s.Vars[v].Next), next[v][p]))
		}
		iv.comps = append(iv.comps, m.Protect(c))
	}
	s.SetDisjuncts(iv.comps)

	init := randomStateFunc(r, s, nData+nSched)
	if init == bdd.False {
		init = bdd.True
	}
	s.Init = m.Protect(init)
	return iv
}

// shapes names the three shapes of the relation, in the order the
// tests switch through them.
var shapes = []string{"disjunctive", "conjunctive", "monolithic"}

// use switches the structure to one shape of its relation: installs the
// disjunctive or the conjunctive partition, or bypasses the installed
// one for the monolithic relation.
func (iv *interleaved) use(shape string) {
	switch shape {
	case "disjunctive":
		iv.s.SetDisjuncts(iv.comps)
	case "conjunctive":
		iv.s.SetClusters(iv.clusters)
	}
	iv.s.EnablePartition(shape != "monolithic")
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

// checkImageModes computes Image and Preimage of set under all three
// shapes and fails the test if any pair disagrees.
func checkImageModes(t *testing.T, iv *interleaved, set bdd.Ref, tag string) {
	t.Helper()
	var img, pre [3]bdd.Ref
	for i, shape := range shapes {
		iv.use(shape)
		img[i], pre[i] = iv.s.Image(set), iv.s.Preimage(set)
	}
	if img[0] != img[2] || img[1] != img[2] {
		t.Fatalf("%s: Image differs (disj=%v conj=%v mono=%v)", tag, img[0], img[1], img[2])
	}
	if pre[0] != pre[2] || pre[1] != pre[2] {
		t.Fatalf("%s: Preimage differs (disj=%v conj=%v mono=%v)", tag, pre[0], pre[1], pre[2])
	}
}

func TestDisjunctImageMatchesMonolithic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		iv := buildInterleaved(r, 4, 1+r.Intn(2))
		if iv.s.NumDisjuncts() == 0 {
			t.Fatal("no disjuncts installed")
		}
		for probe := 0; probe < 5; probe++ {
			set := iv.s.M.Protect(randomStateSet(r, iv.s))
			checkImageModes(t, iv, set, "seq")
		}
	}
}

func TestDisjunctReachableAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		iv := buildInterleaved(r, 5, 1+r.Intn(2))
		var reach [3]bdd.Ref
		for i, shape := range shapes {
			iv.use(shape)
			reach[i], _ = iv.s.Reachable()
			iv.s.M.Protect(reach[i])
		}
		if reach[0] != reach[2] || reach[1] != reach[2] {
			t.Fatalf("trial %d: reachability differs (disj=%v conj=%v mono=%v)",
				trial, reach[0], reach[1], reach[2])
		}
	}
}

// TestReachableCountsOneImagePerRound: on an interleaved model the
// three shapes of the relation reach the same set, and each counts one
// image per round it reports.
func TestReachableCountsOneImagePerRound(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	iv := buildInterleaved(r, 5, 2)
	s := iv.s
	var want bdd.Ref
	for i, shape := range shapes {
		iv.use(shape)
		s.ResetRelStats()
		reach, iters := s.Reachable()
		if iters == 0 {
			t.Fatalf("%s: no rounds from a non-empty initial set", shape)
		}
		if got := s.RelStats().ImageCalls; got != uint64(iters) {
			t.Errorf("%s: %d image calls over %d reported iterations", shape, got, iters)
		}
		if i == 0 {
			want = s.M.Protect(reach)
		} else if reach != want {
			t.Errorf("%s: reachable set differs from the disjunctive one", shape)
		}
	}
}

// TestDisjunctPrecedenceAndToggle: the partition installed last is the
// one the images run, and EnablePartition(false) bypasses it without
// discarding it.
func TestDisjunctPrecedenceAndToggle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	iv := buildInterleaved(r, 3, 1)
	s := iv.s
	set := s.M.Protect(randomStateSet(r, s))
	steps := func() uint64 {
		s.ResetRelStats()
		s.Image(set)
		return s.RelStats().DisjunctSteps
	}
	if s.NumDisjuncts() != 2 || s.NumClusters() != 0 || steps() == 0 {
		t.Fatalf("disjunctive partition not in use: %d disjuncts, %d clusters", s.NumDisjuncts(), s.NumClusters())
	}
	s.SetClusters(iv.clusters)
	if s.NumDisjuncts() != 0 || s.NumClusters() == 0 || steps() != 0 {
		t.Fatal("SetClusters did not replace the disjunctive partition")
	}
	s.SetDisjuncts(iv.comps)
	if s.NumDisjuncts() != 2 || steps() == 0 {
		t.Fatal("SetDisjuncts did not replace the conjunctive partition")
	}
	s.EnablePartition(false)
	if s.NumDisjuncts() != 2 || steps() != 0 {
		t.Fatal("EnablePartition(false) must bypass the partition, not discard it")
	}
	s.EnablePartition(true)
	if steps() == 0 {
		t.Fatal("EnablePartition(true) did not restore the partition")
	}
}

// TestSetDisjunctsRemoval: removing every component leaves the empty
// relation: no edge, no successor, nothing reachable beyond Init.
func TestSetDisjunctsRemoval(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	s := buildInterleaved(r, 3, 1).s
	s.SetDisjuncts(nil)
	if s.NumDisjuncts() != 0 || s.NumClusters() != 0 {
		t.Fatalf("empty partition reports %d disjuncts, %d clusters", s.NumDisjuncts(), s.NumClusters())
	}
	if s.Trans() != bdd.False || s.Image(bdd.True) != bdd.False || s.Preimage(bdd.True) != bdd.False {
		t.Fatal("a partition of no components must be the empty relation")
	}
	if reach, iters := s.Reachable(); reach != s.Init || iters != 1 {
		t.Fatalf("empty relation reaches %v in %d rounds, want Init in 1", reach, iters)
	}
	if s.HasEdge(State{false, false, false, false}, State{false, false, false, false}) {
		t.Fatal("the empty relation has an edge")
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

// TestReplacingPartitionRebuildsTrans: installing a partition drops
// what was computed from the one it replaces, so Trans(), the
// monolithic image, the deadlock check and the cached reachable set
// follow the new relation.
func TestReplacingPartitionRebuildsTrans(t *testing.T) {
	s := NewSymbolic([]string{"x", "y"})
	m := s.M
	x, y := s.Vars[0], s.Vars[1]
	compA := m.Protect(m.And(m.Var(x.Cur), m.Eq(m.Var(y.Next), m.NVar(y.Cur))))
	compB := m.Protect(m.And(m.NVar(x.Cur), m.Eq(m.Var(y.Next), m.Var(y.Cur))))
	s.Init = m.Protect(m.And(m.NVar(x.Cur), m.NVar(y.Cur)))
	s.EnableReachableCache()
	s.SetDisjuncts([]bdd.Ref{compA, compB})
	if s.Trans() != m.Or(compA, compB) {
		t.Fatal("Trans() is not the union of the components")
	}
	if reach, _ := s.Reachable(); reach != bdd.True || !s.IsTotal() {
		t.Fatal("the components reach every state, and every state has a successor")
	}
	s.EnablePartition(false)
	if s.Preimage(bdd.True) != bdd.True { // builds the monolithic relation
		t.Fatal("every state has a successor under the components")
	}
	s.SetClusters([]bdd.Ref{compA})
	if s.Trans() != compA {
		t.Fatal("Trans() kept the relation of the replaced components")
	}
	if s.Preimage(bdd.True) != m.Var(x.Cur) {
		t.Fatal("the monolithic image kept the relation of the replaced components")
	}
	if s.IsTotal() {
		t.Fatal("the deadlock check kept the relation of the replaced components")
	}
	if reach, _ := s.Reachable(); reach != s.Init {
		t.Fatal("the reachable cache kept the set of the replaced components")
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
	s := buildInterleaved(r, 4, 2).s

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
	s := buildInterleaved(r, 5, 1).s
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

// FuzzImageDifferential cross-checks the disjunctive and the
// conjunctive install of one random interleaved model against the
// monolithic relation (EnablePartition(false)): images, preimages and
// reachability.
func FuzzImageDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(2))
	f.Add(int64(99), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nSched uint8) {
		ns := int(nSched)%2 + 1 // 1 or 2 scheduler bits
		r := rand.New(rand.NewSource(seed))
		iv := buildInterleaved(r, 3+r.Intn(3), ns)
		for probe := 0; probe < 3; probe++ {
			set := iv.s.M.Protect(randomStateSet(r, iv.s))
			checkImageModes(t, iv, set, fmt.Sprintf("seed=%d", seed))
		}
		var reach [3]bdd.Ref
		for i, shape := range shapes {
			iv.use(shape)
			reach[i], _ = iv.s.Reachable()
			iv.s.M.Protect(reach[i])
		}
		if reach[0] != reach[2] || reach[1] != reach[2] {
			t.Fatalf("reachability differs from monolithic (seed=%d)", seed)
		}
	})
}
