package kripke

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// buildPartitionedCounter builds an n-bit ripple counter through the
// Builder so the clusters get installed automatically.
func buildPartitionedCounter(n int) (*Symbolic, *Builder) {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b := NewBuilder(names)
	m := b.S.M
	carry := bdd.True
	for i := 0; i < n; i++ {
		b.InitValue(names[i], false)
		cur := b.Cur(names[i])
		b.NextFunc(names[i], m.Xor(cur, carry))
		carry = m.And(carry, cur)
	}
	return b.Finish(), b
}

func TestPartitionInstalledByBuilder(t *testing.T) {
	s, _ := buildPartitionedCounter(4)
	if s.NumClusters() != 4 {
		t.Fatalf("want 4 clusters, got %d", s.NumClusters())
	}
}

func TestPartitionedImageEqualsMonolithic(t *testing.T) {
	s, _ := buildPartitionedCounter(5)
	m := s.M
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		// random state set over current vars
		set := bdd.False
		for i := 0; i < 3; i++ {
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
		imgPart := s.Image(set)
		prePart := s.Preimage(set)

		// compare against the monolithic path
		s.EnablePartition(false)
		imgMono := s.Image(set)
		preMono := s.Preimage(set)
		s.EnablePartition(true)

		if imgPart != imgMono {
			t.Fatalf("trial %d: partitioned Image differs", trial)
		}
		if prePart != preMono {
			t.Fatalf("trial %d: partitioned Preimage differs", trial)
		}
	}
}

func TestPartitionedWithFreeVariables(t *testing.T) {
	// y is a free input (no next constraint): both paths must agree.
	b := NewBuilder([]string{"x", "y"})
	m := b.S.M
	b.InitValue("x", false)
	b.NextFunc("x", m.Or(b.Cur("x"), b.Cur("y")))
	b.ConstrainTrans(bdd.True) // trivial cluster, dropped by the affinity pass
	s := b.Finish()
	if n := s.NumClusters(); n != 1 {
		t.Fatalf("want the one nontrivial cluster installed, got %d", n)
	}
	set := m.Var(s.Vars[0].Cur) // x = 1
	pre1 := s.Preimage(set)
	img1 := s.Image(set)
	s.EnablePartition(false)
	pre2 := s.Preimage(set)
	img2 := s.Image(set)
	s.EnablePartition(true)
	if pre1 != pre2 || img1 != img2 {
		t.Fatal("free-variable quantification differs between paths")
	}
}

// TestSetClustersRemoval: removing every cluster leaves the relation
// True: every state steps to every state.
func TestSetClustersRemoval(t *testing.T) {
	s, _ := buildPartitionedCounter(3)
	s.SetClusters(nil)
	if s.NumClusters() != 0 {
		t.Fatal("clusters should be removed")
	}
	one := s.StateCube(State{true, false, true})
	if s.Trans() != bdd.True || s.Image(one) != bdd.True || s.Preimage(one) != bdd.True {
		t.Fatal("a partition of no clusters must be the full relation")
	}
}

func TestAffinityMergeDropsTrivialAndSubsetClusters(t *testing.T) {
	b := NewBuilder([]string{"x", "y", "z"})
	m := b.S.M
	b.NextFunc("x", m.And(b.Cur("y"), b.Cur("z")))
	b.NextFunc("y", b.Cur("x"))
	// Trivial conjunct and a duplicate: both must vanish in the merge.
	b.ConstrainTrans(bdd.True)
	dup := m.Eq(b.Next("y"), b.Cur("x"))
	b.ConstrainTrans(dup)
	// A cluster whose support is a subset of the x-assignment's support
	// (mentions only cur y): folded into it, not scheduled separately.
	b.ConstrainTrans(m.Or(b.Cur("y"), m.Not(b.Cur("y"))))
	s := b.Finish()
	if n := s.NumClusters(); n != 2 {
		t.Fatalf("affinity merge should leave 2 clusters, got %d", n)
	}
}

func TestScheduleCoversAllQuantificationVars(t *testing.T) {
	s, _ := buildPartitionedCounter(5)
	m := s.M
	p := s.Partition().parts[0]
	for _, dir := range []struct {
		name  string
		sched schedule
		qvar  func(StateVar) int
	}{
		{"pre", p.pre, func(v StateVar) int { return v.Next }},
		{"img", p.img, func(v StateVar) int { return v.Cur }},
	} {
		if len(dir.sched.order) != len(p.clusters) {
			t.Fatalf("%s: order misses clusters", dir.name)
		}
		seen := map[int]bool{}
		for _, ci := range dir.sched.order {
			if seen[ci] {
				t.Fatalf("%s: cluster %d scheduled twice", dir.name, ci)
			}
			seen[ci] = true
		}
		// Every quantification variable must appear in exactly one cube
		// (or in free), and never before its last-use cluster.
		quantified := map[int]int{} // var -> schedule position
		for k, cube := range dir.sched.cubes {
			for _, v := range m.CubeVars(cube) {
				if old, dup := quantified[v]; dup {
					t.Fatalf("%s: var %d quantified at %d and %d", dir.name, v, old, k)
				}
				quantified[v] = k
			}
		}
		for _, v := range m.CubeVars(dir.sched.free) {
			if _, dup := quantified[v]; dup {
				t.Fatalf("%s: free var %d also in a cube", dir.name, v)
			}
			quantified[v] = -1
		}
		for _, sv := range s.Vars {
			if _, ok := quantified[dir.qvar(sv)]; !ok {
				t.Fatalf("%s: variable %s never quantified", dir.name, sv.Name)
			}
		}
		// Soundness: a variable quantified at position k must not occur in
		// any cluster scheduled after k.
		for k, cube := range dir.sched.cubes {
			for _, v := range m.CubeVars(cube) {
				for later := k + 1; later < len(dir.sched.order); later++ {
					for _, sv := range m.Support(p.clusters[dir.sched.order[later]]) {
						if sv == v {
							t.Fatalf("%s: var %d quantified at %d but used by cluster at %d", dir.name, v, k, later)
						}
					}
				}
			}
		}
	}
}

func TestEnablePartitionToggle(t *testing.T) {
	s, _ := buildPartitionedCounter(4)
	set := s.M.Var(s.Vars[0].Cur)
	s.ResetRelStats()
	pre1 := s.Preimage(set)
	if steps := s.RelStats().ClusterSteps; steps != 4 {
		t.Fatalf("partitioned preimage took %d cluster steps, want 4", steps)
	}
	s.EnablePartition(false)
	if s.NumClusters() != 4 {
		t.Fatal("toggle must not discard the partition")
	}
	s.ResetRelStats()
	pre2 := s.Preimage(set)
	if steps := s.RelStats().ClusterSteps; steps != 1 {
		t.Fatalf("monolithic preimage took %d cluster steps, want 1", steps)
	}
	s.EnablePartition(true)
	pre3 := s.Preimage(set)
	if pre1 != pre2 || pre2 != pre3 {
		t.Fatal("toggling the partition changed Preimage")
	}
}

func TestRelStatsAccumulate(t *testing.T) {
	s, _ := buildPartitionedCounter(4)
	s.ResetRelStats()
	s.Reachable()
	rs := s.RelStats()
	if rs.ImageCalls == 0 {
		t.Fatal("image calls not counted")
	}
	if rs.ClusterSteps == 0 {
		t.Fatal("cluster steps not counted on the partitioned path")
	}
	if rs.PeakLiveNodes == 0 {
		t.Fatal("peak live nodes not sampled")
	}
	s.EnablePartition(false)
	s.ResetRelStats()
	s.Preimage(bdd.True)
	rs = s.RelStats()
	if rs.PreimageCalls != 1 || rs.ClusterSteps != 1 {
		t.Fatalf("monolithic path stats wrong: %+v", rs)
	}
}

func TestSharedDeadlockComputation(t *testing.T) {
	// x flips forever, but from x=1 there is also an escape to a sink
	// with no successors: next(x) has no feasible value when y=1.
	b := NewBuilder([]string{"x", "y"})
	m := b.S.M
	b.InitValue("x", false)
	b.InitValue("y", false)
	// y latches once set nondeterministically; when y holds, no
	// transition exists (deadlock): Trans ∧ y = false.
	b.ConstrainTrans(m.Or(m.Eq(b.Next("x"), m.Not(b.Cur("x"))), b.Cur("y")))
	b.ConstrainTrans(m.Not(b.Cur("y")))
	s := b.Finish()
	if s.IsTotal() {
		t.Fatal("structure with y=1 deadlock must not be total")
	}
	dead := s.DeadlockStates()
	if dead == bdd.False {
		t.Fatal("deadlock states missing")
	}
	if !s.Holds(dead, State{false, true}) {
		t.Fatal("state y=1 should be deadlocked")
	}
	if s.Holds(dead, State{false, false}) {
		t.Fatal("state y=0 is live")
	}
	// The ∃v′.Trans computation is shared and cached.
	rs0 := s.RelStats()
	s.IsTotal()
	s.DeadlockStates()
	if s.RelStats().PreimageCalls != rs0.PreimageCalls {
		t.Fatal("hasSuccessors must be cached after the first computation")
	}
}

func TestPartitionedReachableAgrees(t *testing.T) {
	s, _ := buildPartitionedCounter(6)
	reachPart, _ := s.Reachable()
	s.EnablePartition(false)
	reachMono, _ := s.Reachable()
	s.EnablePartition(true)
	if reachPart != reachMono {
		t.Fatal("reachability differs between partitioned and monolithic")
	}
	if got := s.CountStates(reachPart); got != 64 {
		t.Fatalf("counter reachable = %v, want 64", got)
	}
}
