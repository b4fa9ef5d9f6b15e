package kripke

import "repro/internal/bdd"

// One transition relation, three shapes. Every fixpoint the checker
// runs is an image or a preimage over R(v,v′), and R is held as a union
// of parts, each part a conjunction of clusters:
//
//	R(v,v′) = ⋁ₚ ⋀ᵢ Cₚᵢ(v,v′)      Image(S) = ⋁ₚ chainₚ(∃freeₚ.S)
//
// The image distributes over the union. Inside a part the relational
// product never builds the conjunction: it conjoins the clusters one at
// a time, quantifying each variable out at the earliest step after
// which no remaining cluster of the part mentions it (early
// quantification, Burch/Clarke/Long), and the variables the part never
// mentions are quantified out of the argument before the chain starts
// (∃x.(S ∧ T) = (∃x.S) ∧ T when x ∉ sup(T)). The three image modes are
// three values of the one type:
//
//   - conjunctive (SetClusters): one part holding the clusters of a
//     synchronous relation;
//   - disjunctive (SetDisjuncts): one single-cluster part per step
//     relation Tᵢ of an interleaved model, R = ⋁ᵢ Tᵢ (process i takes a
//     step, everything it does not drive is framed), so each product
//     sees only the variables its process mentions;
//   - monolithic: one part holding Trans() whose one step quantifies
//     every variable, with nothing quantified first. It is built
//     without the schedule code below, so it stays an independent
//     oracle for the other two.
//
// Installing a part schedules each direction greedily (next-state
// variables for Preimage, current-state variables for Image): repeatedly
// pick the cluster that kills the most quantification variables —
// variables appearing in no other unscheduled cluster — breaking ties
// toward clusters whose variables are closest to dead and then toward
// smaller BDDs, so that the accumulator's support shrinks as early in
// the chain as possible. SetClusters first runs an affinity pass that
// drops trivial conjuncts, deduplicates, and folds every cluster whose
// support is contained in another's into it (such a conjunct can never
// enable earlier quantification on its own).

// Relation is a transition relation as a union of parts, each a
// conjunction of clusters with an early-quantification schedule per
// image direction.
type Relation struct {
	parts []part
}

// part is one conjunction of a Relation.
type part struct {
	clusters []bdd.Ref
	pre      schedule // Preimage: quantifies next-state variables
	img      schedule // Image: quantifies current-state variables
}

// schedule is one direction's evaluation plan: conjoin clusters[order[k]]
// for k = 0, 1, ..., quantifying cubes[k] immediately afterwards. free is
// the cube of quantification variables appearing in no cluster of the
// part; they are quantified from the argument before the chain starts.
type schedule struct {
	order []int
	cubes []bdd.Ref
	free  bdd.Ref
}

// Clusters returns the clusters of every part, in installation order.
func (r *Relation) Clusters() []bdd.Ref {
	var out []bdd.Ref
	for _, p := range r.parts {
		out = append(out, p.clusters...)
	}
	return out
}

// holds reports whether the edge assignment env lies in the relation:
// every cluster of some part accepts it.
func (r *Relation) holds(m *bdd.Manager, env []bool) bool {
	for _, p := range r.parts {
		all := true
		for _, c := range p.clusters {
			if !m.Eval(c, env) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// RelStats counts relational-product work on a Symbolic structure.
// PeakLiveNodes is the manager's live-node high-water mark sampled at
// every step of a product, which is where the intermediate-result
// blow-up of a bad schedule shows up.
type RelStats struct {
	PreimageCalls uint64
	ImageCalls    uint64 // Image calls, plus one per Reachable round
	ClusterSteps  uint64 // AndExists steps taken, the monolithic relation's single one included
	DisjunctSteps uint64 // steps taken through a relation of several parts (subset of ClusterSteps)
	PeakLiveNodes int

	// ReachableReuses counts Reachable calls answered from the cache
	// (EnableReachableCache / SetReachable) without running the fixpoint —
	// the counter a warm-start test asserts on to prove reachability was
	// actually skipped.
	ReachableReuses uint64

	// Computed-cache traffic of the underlying manager accumulated since
	// the last ResetRelStats, and the unique-table load factor sampled
	// when RelStats() is called. CacheLookups and CacheHits both cover
	// every computed table — ITE, binary and AndExists — so CacheHits
	// never exceeds CacheLookups. (bdd.Stats keeps AndExists lookups
	// apart, in AndExistsLookups; RelStats adds them back.) Together
	// they make the normalization win of complement edges visible
	// without a profiler: higher hit rate, same load, fewer nodes.
	CacheLookups    uint64
	CacheHits       uint64
	UniqueTableLoad float64
}

// CacheHitRate returns the computed-cache hit rate in [0,1], or 0 when
// no lookups have happened yet.
func (r RelStats) CacheHitRate() float64 {
	if r.CacheLookups == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.CacheLookups)
}

// RelStats returns the accumulated relational-product counters.
func (s *Symbolic) RelStats() RelStats {
	out := s.relStats
	out.CacheLookups = s.M.Stats.CacheLookups - s.stats0.CacheLookups +
		s.M.Stats.AndExistsLookups - s.stats0.AndExistsLookups
	out.CacheHits = s.M.Stats.CacheHits - s.stats0.CacheHits
	out.UniqueTableLoad = s.M.UniqueTableLoadFactor()
	return out
}

// ResetRelStats zeroes the relational-product counters.
func (s *Symbolic) ResetRelStats() {
	s.relStats = RelStats{}
	s.stats0 = s.M.Stats
}

func (s *Symbolic) noteLiveNodes() {
	if n := s.M.NumNodes(); n > s.relStats.PeakLiveNodes {
		s.relStats.PeakLiveNodes = n
	}
}

// SetClusters installs a conjunctive partition of the transition
// relation as a one-part Relation (the conjunction of the clusters must
// equal Trans; the builder and the SMV compiler guarantee this).
// Passing an empty slice removes the partition.
func (s *Symbolic) SetClusters(clusters []bdd.Ref) {
	var parts [][]bdd.Ref
	if clusters = s.affinityMerge(clusters); len(clusters) > 0 {
		parts = [][]bdd.Ref{clusters}
	}
	s.conj = s.install(s.conj, parts)
}

// SetDisjuncts installs a disjunctive partition of the transition
// relation as a Relation of one single-cluster part per component: the
// union of the components must equal Trans (the SMV compiler guarantees
// this for process models). Constant-false components are dropped.
// Passing an empty slice removes the partition. The disjunctive image
// starts disabled; EnableDisjunct(true) switches Image, Preimage and
// Reachable over to it.
func (s *Symbolic) SetDisjuncts(comps []bdd.Ref) {
	var parts [][]bdd.Ref
	for _, c := range comps {
		if c != bdd.False {
			parts = append(parts, []bdd.Ref{c})
		}
	}
	s.disj = s.install(s.disj, parts)
}

// install releases old and returns the Relation of the given parts, or
// nil when there are none, protecting its clusters and cubes. A
// monolithic relation still deferred is pinned before a partition goes
// away. One never installed (trans still True) is deferred: Trans()
// builds it from the partition on first demand. On large models that
// conjunction is the expensive object the partition exists to avoid, so
// nothing should pay for it eagerly.
func (s *Symbolic) install(old *Relation, parts [][]bdd.Ref) *Relation {
	m := s.M
	if len(parts) == 0 && !s.transValid {
		s.Trans()
	}
	if old != nil {
		for _, p := range old.parts {
			for _, c := range p.clusters {
				m.Unprotect(c)
			}
			for _, sc := range []schedule{p.pre, p.img} {
				for _, c := range sc.cubes {
					m.Unprotect(c)
				}
				m.Unprotect(sc.free)
			}
		}
	}
	if len(parts) == 0 {
		return nil
	}
	r := &Relation{}
	for _, clusters := range parts {
		var p part
		for _, c := range clusters {
			p.clusters = append(p.clusters, m.Protect(c))
		}
		p.pre = s.buildSchedule(p.clusters, s.NextVars())
		p.img = s.buildSchedule(p.clusters, s.curVars)
		r.parts = append(r.parts, p)
	}
	if s.trans == bdd.True {
		s.transValid = false
	}
	return r
}

// affinityMerge is the pre-scheduling cleanup pass: drop trivially true
// conjuncts, deduplicate, and fold any cluster whose support is a subset
// of another cluster's into that cluster. The result preserves the
// conjunction.
func (s *Symbolic) affinityMerge(clusters []bdd.Ref) []bdd.Ref {
	m := s.M
	var out []bdd.Ref
	seen := map[bdd.Ref]bool{}
	for _, c := range clusters {
		if c == bdd.True || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	if len(out) < 2 {
		return out
	}
	sup := make([]map[int]bool, len(out))
	for i, c := range out {
		sup[i] = map[int]bool{}
		for _, v := range m.Support(c) {
			sup[i][v] = true
		}
	}
	subset := func(a, b map[int]bool) bool {
		if len(a) > len(b) {
			return false
		}
		for v := range a {
			if !b[v] {
				return false
			}
		}
		return true
	}
	alive := make([]bool, len(out))
	for i := range alive {
		alive[i] = true
	}
	for i := range out {
		if !alive[i] {
			continue
		}
		for j := range out {
			if i == j || !alive[j] || !alive[i] {
				continue
			}
			// Fold i into j when sup(i) ⊆ sup(j); on equal supports keep
			// the lower index as the host so the pass is deterministic.
			if subset(sup[i], sup[j]) && (len(sup[i]) < len(sup[j]) || i < j) {
				host, dead := j, i
				if len(sup[i]) == len(sup[j]) {
					host, dead = i, j
				}
				out[host] = m.And(out[host], out[dead])
				alive[dead] = false
			}
		}
	}
	var merged []bdd.Ref
	for i, c := range out {
		if alive[i] && c != bdd.True {
			merged = append(merged, c)
		}
	}
	return merged
}

// buildSchedule computes one direction's greedy early-quantification
// schedule over the quantification variables qvars. The cubes are
// protected, since they live as long as the part.
func (s *Symbolic) buildSchedule(clusters []bdd.Ref, qvars []int) schedule {
	m := s.M
	n := len(clusters)
	isQ := make(map[int]bool, len(qvars))
	for _, v := range qvars {
		isQ[v] = true
	}
	// sup[i]: quantification variables in cluster i; occ[v]: number of
	// unscheduled clusters mentioning v.
	sup := make([][]int, n)
	occ := map[int]int{}
	for i, c := range clusters {
		for _, v := range m.Support(c) {
			if isQ[v] {
				sup[i] = append(sup[i], v)
				occ[v]++
			}
		}
	}

	var sc schedule
	scheduled := make([]bool, n)
	for step := 0; step < n; step++ {
		best, bestKills := -1, -1
		var bestAffinity float64
		bestSize := 0
		for i := 0; i < n; i++ {
			if scheduled[i] {
				continue
			}
			kills := 0
			affinity := 0.0
			for _, v := range sup[i] {
				if occ[v] == 1 {
					kills++
				}
				affinity += 1.0 / float64(occ[v])
			}
			size := m.Size(clusters[i])
			better := false
			switch {
			case kills != bestKills:
				better = kills > bestKills
			case affinity != bestAffinity:
				better = affinity > bestAffinity
			default:
				better = size < bestSize
			}
			if best < 0 || better {
				best, bestKills, bestAffinity, bestSize = i, kills, affinity, size
			}
		}
		scheduled[best] = true
		var dead []int
		for _, v := range sup[best] {
			occ[v]--
			if occ[v] == 0 {
				dead = append(dead, v)
			}
		}
		sc.order = append(sc.order, best)
		sc.cubes = append(sc.cubes, m.Protect(m.Cube(dead)))
	}

	// Quantification variables mentioned by no cluster at all: quantified
	// from the argument before the chain starts.
	var unused []int
	for _, v := range qvars {
		if _, mentioned := occ[v]; !mentioned {
			unused = append(unused, v)
		}
	}
	sc.free = m.Protect(m.Cube(unused))
	return sc
}

// EnablePartition toggles use of an installed conjunctive partition
// without discarding it, so benchmarks and differential tests can flip
// between the clustered and the monolithic image on the same structure.
func (s *Symbolic) EnablePartition(on bool) { s.partOff = !on }

// PartitionEnabled reports whether an installed conjunctive partition
// is in use (a disjunctive one, when enabled, still takes precedence).
func (s *Symbolic) PartitionEnabled() bool { return s.conj != nil && !s.partOff }

// Partition returns the installed conjunctive partition, or nil.
func (s *Symbolic) Partition() *Relation { return s.conj }

// HasClusters reports whether a conjunctive partition is installed.
func (s *Symbolic) HasClusters() bool { return s.conj != nil }

// NumClusters returns the number of installed clusters (0 if none).
func (s *Symbolic) NumClusters() int {
	if s.conj == nil {
		return 0
	}
	return len(s.conj.parts[0].clusters)
}

// EnableDisjunct toggles use of an installed disjunctive partition.
// When enabled it takes precedence over a conjunctive partition, so
// differential tests can flip one structure between all three image
// shapes (disjunctive, conjunctive, monolithic).
func (s *Symbolic) EnableDisjunct(on bool) { s.disjOn = on }

// DisjunctEnabled reports whether Image/Preimage currently use the
// disjunctive partition.
func (s *Symbolic) DisjunctEnabled() bool { return s.disj != nil && s.disjOn }

// Disjunct returns the installed disjunctive partition, or nil.
func (s *Symbolic) Disjunct() *Relation { return s.disj }

// NumDisjuncts returns the number of installed disjunctive components
// (0 if none).
func (s *Symbolic) NumDisjuncts() int {
	if s.disj == nil {
		return 0
	}
	return len(s.disj.parts)
}

// SetWorkers does nothing: every image runs sequentially on the one
// single-threaded manager.
//
// Deprecated: the shared-memory parallel BDD engine it configured has
// been removed. SetWorkers remains only because perfbench calls it.
func (s *Symbolic) SetWorkers(int) {}

// relation returns the shape Image, Preimage and Reachable evaluate:
// the disjunctive partition when enabled, else the conjunctive one
// unless bypassed, else the monolithic relation. The monolithic shape
// is built on first use, with the refs in keep kept across Trans(),
// which may materialize R and collect garbage.
func (s *Symbolic) relation(keep ...bdd.Ref) *Relation {
	switch {
	case s.DisjunctEnabled():
		return s.disj
	case s.PartitionEnabled():
		return s.conj
	}
	if s.mono == nil {
		k := s.kept
		n := len(k.refs)
		k.refs = append(k.refs, keep...)
		trans := s.Trans()
		k.refs = k.refs[:n]
		all := func(cube bdd.Ref) schedule {
			return schedule{order: []int{0}, cubes: []bdd.Ref{cube}, free: bdd.True}
		}
		s.mono = &Relation{parts: []part{{clusters: []bdd.Ref{trans}, pre: all(s.nextCube), img: all(s.curCube)}}}
	}
	return s.mono
}

// factors returns the relation as installed, whichever image is
// enabled: the conjunctive partition, else the disjunctive one, else
// the monolithic relation. Trans() builds R from it and HasEdge
// evaluates it pointwise, so trace validation never forces the
// monolithic BDD into existence.
func (s *Symbolic) factors() *Relation {
	switch {
	case s.conj != nil:
		return s.conj
	case s.disj != nil:
		return s.disj
	}
	return s.relation()
}

// apply evaluates ⋁ₚ chainₚ(∃freeₚ.arg) over r's parts in one
// direction: over next-state variables for an image, over current-state
// variables for a preimage (pre). The argument stays kept until the
// last part has quantified it, the union until the last part ends.
func (s *Symbolic) apply(r *Relation, arg bdd.Ref, pre bool) bdd.Ref {
	k := s.kept
	n := len(k.refs)
	k.refs = append(k.refs, arg, bdd.False)
	for i := range r.parts {
		if i == len(r.parts)-1 {
			k.refs[n] = bdd.False
		}
		img := s.product(r, i, arg, pre)
		if i > 0 {
			img = s.M.Or(k.refs[n+1], img)
		}
		k.refs[n+1] = img
	}
	res := k.refs[n+1]
	k.refs = k.refs[:n]
	return res
}

// product runs part i of r on arg: quantify the part's free variables
// out of arg, then conjoin its clusters in schedule order, each AndExists
// step behind a reorder safe point. The clusters and cubes are
// protected and the accumulator is kept; arg is read before the first
// safe point only.
func (s *Symbolic) product(r *Relation, i int, arg bdd.Ref, pre bool) bdd.Ref {
	m := s.M
	p := &r.parts[i]
	sc := &p.img
	if pre {
		sc = &p.pre
	}
	k := s.kept
	n := len(k.refs)
	k.refs = append(k.refs, m.Exists(arg, sc.free))
	for j, c := range sc.order {
		m.ReorderIfNeeded()
		k.refs[n] = m.AndExists(k.refs[n], p.clusters[c], sc.cubes[j])
		s.relStats.ClusterSteps++
		if len(r.parts) > 1 {
			s.relStats.DisjunctSteps++
		}
		s.noteLiveNodes()
	}
	acc := k.refs[n]
	k.refs = k.refs[:n]
	return acc
}

// refStack holds the refs images in progress still need at their safe
// points. It is one GC root set for the structure's lifetime, so a step
// registers nothing.
type refStack struct{ refs []bdd.Ref }

func (k *refStack) visit(visit func(bdd.Ref)) {
	for _, f := range k.refs {
		visit(f)
	}
}
