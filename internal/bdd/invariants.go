package bdd

import "fmt"

// CheckInvariants verifies the manager's structural invariants and
// returns the first violation found, or nil. It is a test helper:
// O(nodes + caches), intended to be called after GC, reordering, and
// fuzzing steps.
//
// Checked invariants:
//   - the variable order maps are inverse bijections;
//   - the free list is consistent with numFree/numAlloc;
//   - every live node has a valid level, in-arena non-free children,
//     strictly increasing levels on every path (child level > node
//     level), and is reduced (low != high);
//   - the complement-edge canonical form: no stored else edge carries
//     the complement bit (with DisableComplementEdges, no stored edge
//     other than one to the terminal carries it at all);
//   - no node carries a GC mark bit outside a collection;
//   - the unique table contains every live node exactly once, in its
//     own level's subtable in the bucket its child pair hashes to, with
//     no duplicate triples and exact per-level live counts;
//   - no operation-cache entry (ITE, binary, AndExists, permutation)
//     mentions a freed or out-of-arena node — in particular there are no
//     stale entries after a reorder, which clears all caches.
func CheckInvariants(m *Manager) error {
	n := len(m.nodes)
	if n < 1 {
		return fmt.Errorf("bdd: arena has %d nodes; terminal missing", n)
	}
	if m.nodes[0].lvl != terminalLevel {
		return fmt.Errorf("bdd: node 0 is not the terminal (lvl %d)", m.nodes[0].lvl)
	}

	// Variable order maps.
	if len(m.var2level) != len(m.level2var) {
		return fmt.Errorf("bdd: var2level/level2var length mismatch (%d vs %d)",
			len(m.var2level), len(m.level2var))
	}
	for l, v := range m.level2var {
		if v < 0 || v >= len(m.var2level) {
			return fmt.Errorf("bdd: level2var[%d] = %d out of range", l, v)
		}
		if m.var2level[v] != l {
			return fmt.Errorf("bdd: order maps disagree: level2var[%d]=%d but var2level[%d]=%d",
				l, v, v, m.var2level[v])
		}
	}

	// Free list.
	onFree := make([]bool, n)
	freeLen := 0
	for i := m.free; i != 0; i = m.nodes[i].next {
		if int(i) >= n {
			return fmt.Errorf("bdd: free-list entry %d outside arena of %d", i, n)
		}
		if onFree[i] {
			return fmt.Errorf("bdd: free-list cycle at node %d", i)
		}
		onFree[i] = true
		freeLen++
	}
	if freeLen != m.numFree {
		return fmt.Errorf("bdd: free list has %d entries, numFree says %d", freeLen, m.numFree)
	}
	if m.numAlloc+m.numFree != n {
		return fmt.Errorf("bdd: numAlloc(%d) + numFree(%d) != arena size %d",
			m.numAlloc, m.numFree, n)
	}

	// Live nodes.
	numLevels := uint32(len(m.level2var))
	for i := 1; i < n; i++ {
		if onFree[i] {
			continue
		}
		nd := m.nodes[i]
		if nd.lvl&markBit != 0 {
			return fmt.Errorf("bdd: node %d carries a GC mark bit outside a collection", i)
		}
		if nd.lvl >= numLevels {
			return fmt.Errorf("bdd: node %d has level %d beyond the %d variables", i, nd.lvl, numLevels)
		}
		if int(nd.low&^compBit) >= n || int(nd.high&^compBit) >= n {
			return fmt.Errorf("bdd: node %d has out-of-arena child (%d, %d)", i, nd.low, nd.high)
		}
		if onFree[nd.low&^compBit] || onFree[nd.high&^compBit] {
			return fmt.Errorf("bdd: node %d references a freed child (%d, %d)", i, nd.low, nd.high)
		}
		if nd.low == nd.high {
			return fmt.Errorf("bdd: node %d is unreduced (low == high == %d)", i, nd.low)
		}
		if !m.noComp {
			if nd.low&compBit != 0 {
				return fmt.Errorf("bdd: node %d violates canonical form: complemented else edge %d", i, nd.low)
			}
		} else {
			if nd.low&compBit != 0 && nd.low&^compBit != 0 ||
				nd.high&compBit != 0 && nd.high&^compBit != 0 {
				return fmt.Errorf("bdd: node %d carries a complement edge (%d, %d) "+
					"with complement edges disabled", i, nd.low, nd.high)
			}
		}
		if m.level(nd.low) <= nd.lvl || m.level(nd.high) <= nd.lvl {
			return fmt.Errorf("bdd: node %d at level %d has child at level <= its own "+
				"(low %d at %d, high %d at %d)", i, nd.lvl,
				nd.low, m.level(nd.low), nd.high, m.level(nd.high))
		}
	}

	// Unique table: one subtable per level, each node chained in its own
	// level's table under the hash of its child pair, per-level counts
	// exact, and the counts summing to the live non-terminal population.
	if len(m.tables) != len(m.level2var) {
		return fmt.Errorf("bdd: %d subtables for %d levels", len(m.tables), len(m.level2var))
	}
	type pair struct{ low, high Ref }
	chained := 0
	for l := range m.tables {
		st := &m.tables[l]
		seen := make(map[pair]uint32, st.count)
		inLevel := 0
		for b := range st.buckets {
			steps := 0
			for i := st.buckets[b]; i != 0; i = m.nodes[i].next {
				if int(i) >= n {
					return fmt.Errorf("bdd: level %d bucket %d chains to node %d outside arena", l, b, i)
				}
				if onFree[i] {
					return fmt.Errorf("bdd: level %d bucket %d chains to freed node %d", l, b, i)
				}
				nd := m.nodes[i]
				if nd.lvl&^markBit != uint32(l) {
					return fmt.Errorf("bdd: node %d at level %d chained in level %d's table",
						i, nd.lvl&^markBit, l)
				}
				tr := pair{nd.low, nd.high}
				if hash2(tr.low, tr.high, st.mask) != uint32(b) {
					return fmt.Errorf("bdd: node %d (lvl %d, %d, %d) chained in bucket %d, hashes to %d",
						i, l, tr.low, tr.high, b, hash2(tr.low, tr.high, st.mask))
				}
				if prev, dup := seen[tr]; dup {
					return fmt.Errorf("bdd: duplicate unique-table triple (lvl %d, %d, %d): nodes %d and %d",
						l, tr.low, tr.high, prev, i)
				}
				seen[tr] = uint32(i)
				inLevel++
				if steps++; steps > n {
					return fmt.Errorf("bdd: level %d bucket %d chain does not terminate", l, b)
				}
			}
		}
		if inLevel != st.count {
			return fmt.Errorf("bdd: level %d table chains %d nodes, count says %d", l, inLevel, st.count)
		}
		chained += inLevel
	}
	if chained != m.numAlloc-1 {
		return fmt.Errorf("bdd: unique table holds %d nodes, expected %d live non-terminals",
			chained, m.numAlloc-1)
	}

	// Operation caches must not mention freed or out-of-arena nodes.
	liveRef := func(r Ref) bool {
		p := r &^ compBit
		return int(p) < n && (p == 0 || !onFree[p])
	}
	for i := range m.ite {
		e := &m.ite[i]
		if !e.valid {
			continue
		}
		if !liveRef(e.f) || !liveRef(e.g) || !liveRef(e.h) || !liveRef(e.res) {
			return fmt.Errorf("bdd: stale ITE cache entry %d (%d,%d,%d)->%d", i, e.f, e.g, e.h, e.res)
		}
	}
	for i := range m.binop {
		e := &m.binop[i]
		if e.op == 0 {
			continue
		}
		if !liveRef(e.f) || !liveRef(e.g) || !liveRef(e.res) {
			return fmt.Errorf("bdd: stale binary cache entry %d (op %d: %d,%d)->%d", i, e.op, e.f, e.g, e.res)
		}
	}
	for i := range m.aex {
		e := &m.aex[i]
		if !e.valid {
			continue
		}
		if !liveRef(e.f) || !liveRef(e.g) || !liveRef(e.cube) || !liveRef(e.res) {
			return fmt.Errorf("bdd: stale AndExists cache entry %d (%d,%d,%d)->%d", i, e.f, e.g, e.cube, e.res)
		}
	}
	for pi, p := range m.perms {
		for from, to := range p.cache {
			if !liveRef(from) || !liveRef(to) {
				return fmt.Errorf("bdd: stale permutation %d cache entry %d->%d", pi, from, to)
			}
		}
	}
	return nil
}
