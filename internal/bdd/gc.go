package bdd

// Mark-and-sweep garbage collection. Live nodes are those reachable from
// the protected roots (see Protect) or from a registered rewriter's refs
// (see OnReorder/RegisterRefs). Collection never moves nodes, so
// protected and registered Refs stay valid; all other Refs obtained
// before a collection must be considered invalid afterwards. The
// operation caches are cleared because they may mention freed nodes.
//
// Complement bits live on edges, not nodes: marking strips the bit and
// walks the shared node, so protecting f keeps ¬f alive and vice versa.

// GC collects every node unreachable from the protected and registered
// roots and returns the number of nodes freed.
func (m *Manager) GC() int {
	m.Stats.GCRuns++
	// Mark.
	for r := range m.roots {
		m.mark(r)
	}
	for _, rw := range m.rewriters {
		rw.fn(func(r Ref) Ref {
			m.checkRef(r)
			m.mark(r)
			return r
		})
	}
	// Sweep: rebuild the free list and every level's subtable (counts
	// are recomputed from scratch as live nodes are reinserted).
	freed := 0
	m.free = 0
	m.numFree = 0
	for l := range m.tables {
		st := &m.tables[l]
		for i := range st.buckets {
			st.buckets[i] = 0
		}
		st.count = 0
	}
	alive := 1 // the terminal
	for i := len(m.nodes) - 1; i >= 1; i-- {
		n := &m.nodes[i]
		if n.lvl&markBit != 0 {
			n.lvl &^= markBit
			st := &m.tables[n.lvl]
			b := hash2(n.low, n.high, st.mask)
			n.next = st.buckets[b]
			st.buckets[b] = uint32(i)
			st.count++
			alive++
		} else {
			if n.lvl != terminalLevel {
				freed++ // was live; slots already on the free list are just relinked
			}
			n.lvl = terminalLevel // defensive: freed nodes look terminal-ish
			n.low = False
			n.high = False
			n.next = m.free
			m.free = uint32(i)
			m.numFree++
		}
	}
	m.numAlloc = alive
	m.Stats.NodesFreed += uint64(freed)
	if freed > 0 {
		// A collection that freed nothing invalidated nothing: every
		// cached Ref still denotes the same live node, so the caches
		// stay warm (this keeps a no-op sift event from costing the
		// whole Apply cache).
		m.clearCaches()
	}
	return freed
}

// mark sets the mark bit on every node reachable from f.
func (m *Manager) mark(f Ref) {
	f &^= compBit
	if f == 0 {
		return
	}
	n := &m.nodes[f]
	if n.lvl&markBit != 0 {
		return
	}
	n.lvl |= markBit
	m.mark(n.low)
	m.mark(n.high)
}

// MaybeGC runs a collection if the live-node count exceeds the GC
// threshold, returning the number of nodes freed (0 if no collection
// ran). Callers must ensure every Ref they still need is protected.
func (m *Manager) MaybeGC() int {
	// MaybeGC is called at fixpoint safe points; scale the computed
	// tables with the arena here even when no collection runs.
	m.maybeGrowCaches()
	if m.numAlloc <= m.gcThreshold {
		return 0
	}
	return m.GC()
}
