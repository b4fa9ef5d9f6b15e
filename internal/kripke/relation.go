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
// (∃x.(S ∧ T) = (∃x.S) ∧ T when x ∉ sup(T)). The model picks the shape,
// and a structure holds exactly one installed partition:
//
//   - conjunctive (SetClusters): one part holding the clusters of a
//     synchronous relation;
//   - disjunctive (SetDisjuncts): one single-cluster part per step
//     relation Tᵢ of an interleaved model, R = ⋁ᵢ Tᵢ (process i takes a
//     step, everything it does not drive is framed), so each product
//     sees only the variables its process mentions.
//
// The third shape, monolithic, exists only for Trans() and the
// EnablePartition(false) oracle: one part holding Trans() whose one step
// quantifies every variable, with nothing quantified first. It is built
// without the schedule code below, so it stays an independent oracle
// for the installed partition.
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
	// every operation of the manager's one computed table — ITE,
	// AndExists and the quantifiers — so CacheHits never exceeds
	// CacheLookups. (bdd.Stats keeps AndExists lookups apart, in
	// AndExistsLookups; RelStats adds them back.) Together
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

// SetClusters replaces the installed partition with a conjunctive one:
// a one-part Relation holding the clusters, whose conjunction is R.
// With no clusters R is True.
func (s *Symbolic) SetClusters(clusters []bdd.Ref) {
	s.install([][]bdd.Ref{s.affinityMerge(clusters)})
}

// SetDisjuncts replaces the installed partition with a disjunctive one:
// a Relation of one single-cluster part per component, whose union is
// R (the SMV compiler builds one per scheduler value of a process
// model). Constant-false components are dropped; with none left R is
// empty.
func (s *Symbolic) SetDisjuncts(comps []bdd.Ref) {
	var parts [][]bdd.Ref
	for _, c := range comps {
		if c != bdd.False {
			parts = append(parts, []bdd.Ref{c})
		}
	}
	s.install(parts)
}

// install replaces the installed partition with the Relation of the
// given parts, protecting its clusters and cubes and releasing the old
// one's, and drops what was computed from the old one: the monolithic
// relation, the states with successors and the reachable set.
func (s *Symbolic) install(parts [][]bdd.Ref) {
	m := s.M
	if s.rel != nil {
		for _, p := range s.rel.parts {
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
	if s.transValid {
		m.Unprotect(s.trans)
		s.transValid = false
	}
	if s.hasSuccValid {
		m.Unprotect(s.hasSucc)
		s.hasSuccValid = false
	}
	if s.reachValid {
		m.Unprotect(s.reach)
		s.reachValid = false
	}
	s.mono = nil
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
	s.rel = r
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
	// sup[i]: quantification variables in cluster i; size[i]: its node
	// count; occ[v]: number of unscheduled clusters mentioning v.
	sup := make([][]int, n)
	size := make([]int, n)
	occ := map[int]int{}
	for i, c := range clusters {
		size[i] = m.Size(c)
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
			better := false
			switch {
			case kills != bestKills:
				better = kills > bestKills
			case affinity != bestAffinity:
				better = affinity > bestAffinity
			default:
				better = size[i] < bestSize
			}
			if best < 0 || better {
				best, bestKills, bestAffinity, bestSize = i, kills, affinity, size[i]
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

// EnablePartition toggles use of the installed partition without
// discarding it, so benchmarks and differential tests can flip between
// the partitioned and the monolithic image on the same structure.
func (s *Symbolic) EnablePartition(on bool) { s.partOff = !on }

// Partition returns the installed partition.
func (s *Symbolic) Partition() *Relation { return s.rel }

// NumClusters returns the number of clusters of a conjunctive partition
// (0 for a disjunctive one).
func (s *Symbolic) NumClusters() int {
	if len(s.rel.parts) != 1 {
		return 0
	}
	return len(s.rel.parts[0].clusters)
}

// NumDisjuncts returns the number of components of a disjunctive
// partition: its parts, when there are several (0 otherwise).
func (s *Symbolic) NumDisjuncts() int {
	if len(s.rel.parts) < 2 {
		return 0
	}
	return len(s.rel.parts)
}

// EnableDisjunct does nothing: a process model's structure always runs
// its disjunctive partition.
//
// Deprecated: the image is a property of the model. EnableDisjunct
// remains only because perfbench calls it.
func (s *Symbolic) EnableDisjunct(bool) {}

// SetWorkers does nothing: every image runs sequentially on the one
// single-threaded manager.
//
// Deprecated: the shared-memory parallel BDD engine it configured has
// been removed. SetWorkers remains only because perfbench calls it.
func (s *Symbolic) SetWorkers(int) {}

// relation returns the shape Image, Preimage and Reachable evaluate:
// the installed partition, or the monolithic relation while it is
// bypassed. The monolithic shape is built on first use, with the refs
// in keep kept across Trans(), which may materialize R and collect
// garbage.
func (s *Symbolic) relation(keep ...bdd.Ref) *Relation {
	if !s.partOff {
		return s.rel
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
