package kripke

import "repro/internal/bdd"

// Conjunctively partitioned transition relations with early
// quantification (Burch/Clarke/Long; the technique the SMV lineage of
// checkers uses for its image computation). Building the monolithic BDD
// R(v,v′) = ⋀ᵢ Cᵢ(v,v′) can be the bottleneck on large models; the
// relational product can instead conjoin the clusters one at a time,
// quantifying each variable out at the earliest cluster after which no
// remaining cluster mentions it. Image/Preimage switch to the clustered
// path automatically when a Partition is installed.
//
// Installation runs two passes:
//
//  1. an affinity pass that drops trivial conjuncts, deduplicates, and
//     merges clusters whose support is contained in another cluster's
//     (such conjuncts can never enable earlier quantification on their
//     own — folding them in shortens the chain for free);
//  2. a greedy schedule per direction (next-state variables for
//     Preimage, current-state variables for Image): repeatedly pick the
//     cluster that kills the most quantification variables — variables
//     appearing in no other unscheduled cluster — breaking ties toward
//     clusters whose variables are closest to dead and then toward
//     smaller BDDs, so that the accumulator's support shrinks as early
//     in the chain as possible.

// Partition holds the clusters of a conjunctive transition partition and
// the precomputed early-quantification schedules for both image
// directions.
type Partition struct {
	clusters []bdd.Ref
	pre      schedule // Preimage: quantifies next-state variables
	img      schedule // Image: quantifies current-state variables
}

// schedule is one direction's evaluation plan: conjoin clusters[order[k]]
// for k = 0, 1, ..., quantifying cubes[k] immediately afterwards. free is
// the cube of quantification variables appearing in no cluster at all;
// they are quantified from the argument before the chain starts.
type schedule struct {
	order []int
	cubes []bdd.Ref
	free  bdd.Ref
}

// NumClusters returns the number of clusters in the partition.
func (p *Partition) NumClusters() int { return len(p.clusters) }

// Clusters returns a copy of the cluster slice (in installation order).
func (p *Partition) Clusters() []bdd.Ref {
	return append([]bdd.Ref(nil), p.clusters...)
}

// PreimageOrder returns the cluster evaluation order used by Preimage.
func (p *Partition) PreimageOrder() []int {
	return append([]int(nil), p.pre.order...)
}

// ImageOrder returns the cluster evaluation order used by Image.
func (p *Partition) ImageOrder() []int {
	return append([]int(nil), p.img.order...)
}

// RelStats counts relational-product work on a Symbolic structure, for
// the monolithic, conjunctive and disjunctive paths. PeakLiveNodes is
// the manager's live-node high-water mark sampled at every image step
// (and at every cluster/component step on the partitioned paths), which
// is where the intermediate-result blow-up of a bad schedule shows up.
type RelStats struct {
	PreimageCalls uint64
	ImageCalls    uint64
	ClusterSteps  uint64 // AndExists steps taken: chain links (conjunctive) + component products (disjunctive); 0 on the monolithic path
	DisjunctSteps uint64 // component products taken by the disjunctive image (subset of ClusterSteps)
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
// relation (the conjunction of the clusters must equal Trans; the
// builder and the SMV compiler guarantee this). Passing an empty slice
// removes the partition, reverting Image/Preimage to the monolithic
// relation.
func (s *Symbolic) SetClusters(clusters []bdd.Ref) {
	clusters = s.affinityMerge(clusters)
	if len(clusters) == 0 && !s.transValid {
		// The deferred monolithic relation is derived from the partition
		// being removed; pin it down before the clusters go away.
		s.Trans()
	}
	if s.part != nil {
		for _, c := range s.part.clusters {
			s.M.Unprotect(c)
		}
		s.part.pre.release(s.M)
		s.part.img.release(s.M)
		s.part = nil
	}
	if len(clusters) == 0 {
		return
	}
	m := s.M
	p := &Partition{}
	for _, c := range clusters {
		p.clusters = append(p.clusters, m.Protect(c))
	}

	isNext := make(map[int]bool, len(s.Vars))
	isCur := make(map[int]bool, len(s.Vars))
	for _, v := range s.Vars {
		isNext[v.Next] = true
		isCur[v.Cur] = true
	}
	p.pre = s.buildSchedule(p.clusters, func(v int) bool { return isNext[v] }, true)
	p.img = s.buildSchedule(p.clusters, func(v int) bool { return isCur[v] }, false)
	s.part = p
	// If no monolithic relation was ever installed (trans still True),
	// defer it: Trans() will conjoin the clusters on first demand. On
	// large models that conjunction is the expensive object this
	// partition exists to avoid, so nothing should pay for it eagerly.
	if s.trans == bdd.True {
		s.transValid = false
	}
}

func (sc *schedule) release(m *bdd.Manager) {
	for _, c := range sc.cubes {
		m.Unprotect(c)
	}
	m.Unprotect(sc.free)
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
// schedule. keep selects the quantification variables; protect the cubes
// since they live as long as the partition.
func (s *Symbolic) buildSchedule(clusters []bdd.Ref, keep func(int) bool, nextDir bool) schedule {
	m := s.M
	n := len(clusters)
	// sup[i]: quantification variables in cluster i; occ[v]: number of
	// unscheduled clusters mentioning v.
	sup := make([][]int, n)
	occ := map[int]int{}
	for i, c := range clusters {
		for _, v := range m.Support(c) {
			if keep(v) {
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
	for _, sv := range s.Vars {
		v := sv.Cur
		if nextDir {
			v = sv.Next
		}
		if _, mentioned := occ[v]; !mentioned {
			unused = append(unused, v)
		}
	}
	sc.free = m.Protect(m.Cube(unused))
	return sc
}

// EnablePartition toggles use of an installed partition without
// discarding it, so benchmarks and differential tests can flip between
// the clustered and the monolithic path on the same structure.
func (s *Symbolic) EnablePartition(on bool) { s.partOff = !on }

// PartitionEnabled reports whether Image/Preimage currently use the
// installed partition.
func (s *Symbolic) PartitionEnabled() bool { return s.part != nil && !s.partOff }

// Partition returns the installed partition, or nil.
func (s *Symbolic) Partition() *Partition { return s.part }

// HasClusters reports whether a conjunctive partition is installed.
func (s *Symbolic) HasClusters() bool { return s.part != nil }

// NumClusters returns the number of installed clusters (0 if none).
func (s *Symbolic) NumClusters() int {
	if s.part == nil {
		return 0
	}
	return len(s.part.clusters)
}

// preimagePart computes EX to over the cluster schedule with early
// quantification. The accumulator is registered so the per-step reorder
// safe point can fire mid-chain: the structure's hook rewrites the
// clusters and cubes, the registration rewrites acc.
func (s *Symbolic) preimagePart(to bdd.Ref) bdd.Ref {
	m := s.M
	p := s.part
	acc := s.ToNext(to)
	// Quantify next-state vars that no cluster mentions immediately.
	acc = m.Exists(acc, p.pre.free)
	id := m.RegisterRefs(&acc)
	for k := range p.pre.order {
		m.ReorderIfNeeded()
		acc = m.AndExists(acc, p.clusters[p.pre.order[k]], p.pre.cubes[k])
		s.relStats.ClusterSteps++
		s.noteLiveNodes()
	}
	m.Unregister(id)
	return acc
}

// imagePart computes successors of from over the cluster schedule.
func (s *Symbolic) imagePart(from bdd.Ref) bdd.Ref {
	m := s.M
	p := s.part
	acc := m.Exists(from, p.img.free)
	id := m.RegisterRefs(&acc)
	for k := range p.img.order {
		m.ReorderIfNeeded()
		acc = m.AndExists(acc, p.clusters[p.img.order[k]], p.img.cubes[k])
		s.relStats.ClusterSteps++
		s.noteLiveNodes()
	}
	m.Unregister(id)
	return s.ToCur(acc)
}
