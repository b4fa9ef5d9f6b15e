package bdd

import (
	"slices"
	"sort"
	"time"
)

// In-place adjacent-level swap: the O(two levels) reordering primitive,
// and the only way the variable order changes. Sifting runs it from
// siftInPlace; Reorder and a sift's group normalization run it from
// moveTo (reorder.go).
//
// Exchanging the variables at levels l and l+1 rewrites only the nodes
// at those two levels. Every node keeps its arena index, so every Ref
// held anywhere — other levels, protected roots, registered root sets,
// plain locals — stays valid across the swap with its denotation
// unchanged. That is what makes an order change cheap: local surgery
// on two levels plus an exact update of the per-level live counts,
// with nothing for the holders of Refs to rewrite.
//
// Write X for the variable at level l and Y for the one at l+1 before
// the swap. For an upper node n = (X; f0, f1):
//
//   - Case A: neither f0 nor f1 tests Y. Then n's function is
//     independent of Y, its expansion is unchanged, and n simply moves
//     to level l+1 keeping its children and its Ref.
//
//   - Case B: some child tests Y. Cofactoring on Y gives
//     n = (Y; (X; f00, f10), (X; f01, f11)), so n is relabeled in
//     place to test Y (staying at level l and keeping its Ref) over two
//     X-children built by mk at level l+1.
//
// Old Y nodes that remain referenced (by nodes above level l or as
// roots) keep their Refs and drop to level l — they test Y and Y now
// lives there. Unreferenced ones are freed; the freeing can cascade to
// deeper levels, which keeps the live count exact for the sift driver.
//
// Canonicity is preserved without cross-checks between the rewritten
// population and the survivors: a rewritten case-B node genuinely
// depends on X (f0 != f1 before the swap), while a surviving Y node
// cannot (its children lie below both levels), so their denotations —
// and hence, by induction over canonical children, their (low, high)
// pairs at level l — always differ. At level l+1 the inner mk calls
// land in a subtable that holds the case-A nodes first, so equal
// X-cofactors are shared rather than duplicated. Case B cannot produce
// an unreduced node: newLow == newHigh would force f0 == f1.
//
// Complement edges survive the swap through mk itself. An upper node's
// stored else edge f0 is plain, so its else-cofactor f00 is plain and
// the rebuilt else child mk(l+1, f00, f10) comes out plain — the
// relabeled node keeps a canonical (non-complemented) else edge without
// any fixup. The then edge f1 (and the then-cofactors f01, f11) may be
// complemented; their signs are pushed through to the extracted
// cofactors and mk's normalization does the rest. Session refcounts are
// indexed by plain node, since f and ¬f are one node.
//
// A swap session (siftState) keeps its own view of the levels, since
// the swap needs few lookups: the only mk calls are case B's, all at
// level l+1. Each level's nodes are kept in a plain list, filled by the
// arena scan that opens the session, and a swap reads its two levels
// from their lists and rebuilds both lists from the nodes it keeps. It
// hashes into level l+1's subtable only when case B occurs, after
// seeding that subtable with the case-A nodes; a swap without case B
// relabels nodes and exchanges the two lists. The other subtables are
// stale for the session, and endSwapSession rebuilds each from its
// level's list at the fitted size. A list entry counts only while its
// slot holds a node of that level: the cascade leaves the slots it
// frees below level l+1 in their levels' lists, and a list is filtered
// when a swap next reads it, before any mk of that swap can reuse a
// slot. Since every swap rebuilds the lists of both its levels, no slot
// is ever listed twice. (The cascade reaches below level l+1 only in a
// session opened over garbage: a dead Y node's children are the
// cofactors its case-B parents were rebuilt over, so they stay
// referenced.)
//
// Liveness during a swap session is tracked by a session-scoped
// refcount array: in-edges of live nodes plus one per protected root
// and per ref of a registered root set. Counts can transiently reach
// zero and be revived within a swap (an inner mk may reuse the
// structure), so frees are deferred to a dead-candidate stack drained
// at the end of each swap.

// siftState is the bookkeeping of one swap session.
type siftState struct {
	rc            []int32    // per-node refcount: in-edges + protected and registered roots
	zero          []uint32   // dead candidates: nodes whose refcount hit zero
	levels        [][]uint32 // per-level node lists, stale slots included (see above)
	caseB         []uint32   // swapLevels scratch
	cachesCleared bool       // op caches dropped (lazily, at the first swap)
	timedOut      bool       // SiftMaxTime expired
}

// bump counts one new reference to f's node (sign-stripped: f and ¬f
// share one count).
func (st *siftState) bump(f Ref) {
	if !IsTerminal(f) {
		st.rc[f&^compBit]++
	}
}

// drop removes one reference to f's node, queuing it for reaping at zero.
func (st *siftState) drop(f Ref) {
	if IsTerminal(f) {
		return
	}
	i := f &^ compBit
	st.rc[i]--
	if st.rc[i] == 0 {
		st.zero = append(st.zero, uint32(i))
	} else if st.rc[i] < 0 {
		panic("bdd: swap refcount underflow")
	}
}

// beginSwapSession builds the refcounts and the level lists the swaps
// need in one arena scan (free slots carry the terminalLevel sentinel).
// moveTo and SiftNow open it right after a collection, so every node
// starts with a positive count. A node no root reaches would start at
// zero: a swap that meets it on the lower level frees it, cascading
// through what only it reaches, and it is otherwise kept.
func (m *Manager) beginSwapSession() {
	st := &siftState{rc: make([]int32, len(m.nodes)), levels: make([][]uint32, len(m.tables))}
	// One backing array, each level's list at its count's capacity: a
	// list that later outgrows its share moves out on its own.
	buf := make([]uint32, m.numAlloc-1)
	off := 0
	for l := range st.levels {
		c := m.tables[l].count
		st.levels[l] = buf[off : off : off+c]
		off += c
	}
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.lvl == terminalLevel { // free slot
			continue
		}
		st.levels[n.lvl] = append(st.levels[n.lvl], uint32(i))
		st.bump(n.low)
		st.bump(n.high)
	}
	m.visitRoots(st.bump)
	m.sift = st
}

// endSwapSession closes the session: every level's subtable is rebuilt
// from the level's list at the smallest power of two that holds its
// live nodes (at least initialLevelBuckets), so the subtables leave
// every order change fitted to the nodes it kept.
func (m *Manager) endSwapSession() {
	for l, list := range m.sift.levels {
		st := &m.tables[l]
		st.reset(st.count)
		for _, i := range list {
			if m.nodes[i].lvl == uint32(l) { // skips stale slots
				m.link(st, i)
			}
		}
	}
	m.sift = nil
}

// swapMk is mk plus session upkeep: a freshly created node contributes
// one in-edge to each child and joins its level's list. The caller
// accounts for its own edge to the returned Ref.
func (m *Manager) swapMk(lvl uint32, low, high Ref) Ref {
	before := m.numAlloc
	r := m.mk(lvl, low, high)
	st := m.sift
	if len(st.rc) < len(m.nodes) {
		st.rc = append(st.rc, make([]int32, len(m.nodes)-len(st.rc))...)
	}
	if m.numAlloc != before {
		st.bump(low)
		st.bump(high)
		st.levels[lvl] = append(st.levels[lvl], uint32(r&^compBit))
	}
	return r
}

// liveAt filters level l's list in place down to the slots that still
// hold a node of that level and returns it.
func (m *Manager) liveAt(l int) []uint32 {
	list := m.sift.levels[l]
	live := list[:0]
	for _, i := range list {
		if m.nodes[i].lvl == uint32(l) {
			live = append(live, i)
		}
	}
	return live
}

// freeSlot returns node i to the free list. The caller keeps the level
// counts.
func (m *Manager) freeSlot(i uint32) {
	m.nodes[i] = node{lvl: terminalLevel, low: False, high: False, next: m.free}
	m.free = i
	m.numFree++
	m.numAlloc--
	m.Stats.NodesFreed++
}

// reapDead frees every queued dead candidate that was not revived,
// cascading through children whose counts reach zero in turn. A freed
// node's slot stays in its level's list as a stale entry.
func (m *Manager) reapDead() {
	st := m.sift
	for len(st.zero) > 0 {
		i := st.zero[len(st.zero)-1]
		st.zero = st.zero[:len(st.zero)-1]
		n := m.nodes[i]
		if st.rc[i] != 0 || n.lvl == terminalLevel {
			continue // revived by an inner mk, or already freed
		}
		m.tables[n.lvl].count--
		m.freeSlot(i)
		st.drop(n.low)
		st.drop(n.high)
	}
}

// swapLevels exchanges the variables at levels l and l+1 in place. See
// the file comment for the construction and why it is sound. Requires
// an active swap session.
func (m *Manager) swapLevels(l int) {
	st := m.sift
	if st == nil {
		panic("bdd: swapLevels outside a sift session")
	}
	if l < 0 || l+1 >= len(m.level2var) {
		panic("bdd: swapLevels level out of range")
	}
	if !st.cachesCleared {
		// Freed slots may be recycled under cached Refs, so the op
		// caches go once per session — and only if a swap actually
		// runs; a sift that commits nothing keeps them warm.
		m.clearCaches()
		st.cachesCleared = true
	}
	m.Stats.SiftSwaps++

	// Both lists are filtered before any mk below can reuse a slot.
	lvlU, lvlL := uint32(l), uint32(l+1)
	upper, lower := m.liveAt(l), m.liveAt(l+1)

	vU, vL := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = vL, vU
	m.var2level[vU], m.var2level[vL] = l+1, l

	// Pass 1 (case A): upper nodes independent of the lower variable
	// descend to level l+1 unchanged; they become the front of its new
	// list, compacted in place behind the read index.
	caseA, caseB := upper[:0], st.caseB[:0]
	for _, u := range upper {
		n := &m.nodes[u]
		if m.nodes[n.low&^compBit].lvl != lvlL && m.nodes[n.high&^compBit].lvl != lvlL {
			n.lvl = lvlL
			caseA = append(caseA, u)
		} else {
			caseB = append(caseB, u)
		}
	}
	st.caseB = caseB
	st.levels[l+1] = caseA

	// Pass 2 (case B): rebuild each remaining upper node over its Y
	// cofactors. The node keeps its Ref and level; only its children
	// (and the variable it tests) change. The lower subtable is hashed
	// afresh over the case-A nodes first so the X-cofactors share them;
	// swapMk appends the nodes it creates to the lower list. Without
	// case B nothing is looked up, and the subtable stays stale.
	if lt := &m.tables[l+1]; len(caseB) == 0 {
		lt.count = len(caseA)
	} else {
		lt.reset(len(caseA) + 2*len(caseB))
		for _, u := range caseA {
			m.link(lt, u)
		}
	}
	for _, u := range caseB {
		n := m.nodes[u] // copy: the arena may grow under swapMk below
		f0, f1 := n.low, n.high
		f00, f01 := f0, f0
		if p := f0 &^ compBit; m.nodes[p].lvl == lvlL {
			s := f0 & compBit
			f00, f01 = m.nodes[p].low^s, m.nodes[p].high^s
		}
		f10, f11 := f1, f1
		if p := f1 &^ compBit; m.nodes[p].lvl == lvlL {
			s := f1 & compBit
			f10, f11 = m.nodes[p].low^s, m.nodes[p].high^s
		}
		newLow := m.swapMk(lvlL, f00, f10)
		newHigh := m.swapMk(lvlL, f01, f11)
		if newLow == newHigh {
			panic("bdd: adjacent swap produced an unreduced node")
		}
		st.bump(newLow)
		st.bump(newHigh)
		st.drop(f0)
		st.drop(f1)
		nd := &m.nodes[u]
		nd.low, nd.high = newLow, newHigh
	}

	// Lower pass: still-referenced Y nodes rise to level l keeping
	// their Refs and join the case-B nodes in its new list; dead ones
	// are freed.
	risen := lower[:0]
	for _, y := range lower {
		if st.rc[y] > 0 {
			m.nodes[y].lvl = lvlU
			risen = append(risen, y)
		} else {
			n := m.nodes[y]
			m.freeSlot(y)
			st.drop(n.low)
			st.drop(n.high)
		}
	}
	st.levels[l] = append(risen, caseB...)
	m.tables[l].count = len(st.levels[l])
	m.reapDead()
}

// exchangeAdjacentBlocks swaps the adjacent level ranges [s, s+w1) and
// [s+w1, s+w1+w2) by bubbling each level of the second block up through
// the first: w1*w2 adjacent swaps.
func (m *Manager) exchangeAdjacentBlocks(s, w1, w2 int) {
	for j := 0; j < w2; j++ {
		for k := s + w1 + j; k > s+j; k-- {
			m.swapLevels(k - 1)
		}
	}
}

// siftInPlace is SiftNow's engine: converging passes of block sifting
// in which every placement trial is a run of in-place swaps. SiftNow
// has already collected garbage and normalized group adjacency.
func (m *Manager) siftInPlace(opts *ReorderOptions, groupOf []int) {
	startOrder := append([]int(nil), m.level2var...)
	var deadline time.Time
	if opts.SiftMaxTime > 0 {
		deadline = time.Now().Add(opts.SiftMaxTime)
	}
	m.beginSwapSession()
	size := m.numAlloc
	for pass := 0; pass < opts.MaxPasses; pass++ {
		m.Stats.SiftPasses++
		prev := size
		size = m.sweepBlocks(opts, groupOf, deadline)
		if m.sift.timedOut || prev-size < int(minImprove*float64(prev)) {
			break
		}
	}
	if m.sift.timedOut {
		m.Stats.SiftTimeouts++
	}
	m.endSwapSession()
	if !slices.Equal(startOrder, m.level2var) {
		m.Stats.Reorderings++
	}
}

// sweepBlocks is one sift pass: it places the blocks in decreasing order
// of contribution and returns the resulting live-node count.
// Contribution is read off the per-level counts, in O(levels).
func (m *Manager) sweepBlocks(opts *ReorderOptions, groupOf []int, deadline time.Time) int {
	blocks := m.blockOrder(groupOf)
	if len(blocks) <= 1 {
		return m.numAlloc
	}
	contrib := make([]int, len(blocks))
	for bi, b := range blocks {
		for _, v := range b {
			contrib[bi] += m.tables[m.var2level[v]].count
		}
	}
	byContrib := make([]int, len(blocks))
	for i := range byContrib {
		byContrib[i] = i
	}
	sort.Slice(byContrib, func(i, j int) bool { return contrib[byContrib[i]] > contrib[byContrib[j]] })
	limit := len(byContrib)
	if opts.MaxBlocks > 0 && opts.MaxBlocks < limit {
		limit = opts.MaxBlocks
	}
	for _, bi := range byContrib[:limit] {
		if contrib[bi] == 0 || m.sift.timedOut {
			continue
		}
		m.placeBlock(blocks[bi][0], opts, groupOf, deadline)
	}
	return m.numAlloc
}

// placeBlock walks the block (identified by its lead variable) to the
// nearer end of the order and then the far end via adjacent block
// exchanges, measuring the live count after each position, and finishes
// at the best position seen. Directions abort early past the growth
// budget; the timeout is honored between swap runs, but the final walk
// back to the best position always completes.
func (m *Manager) placeBlock(lead int, opts *ReorderOptions, groupOf []int, deadline time.Time) {
	cur := m.blockOrder(groupOf)
	if len(cur) <= 1 {
		return
	}
	pos := -1
	for i, b := range cur {
		if b[0] == lead {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	widths := make([]int, len(cur))
	start := 0 // top level of the sifted block
	for i, b := range cur {
		widths[i] = len(b)
		if i < pos {
			start += len(b)
		}
	}
	lo, hi := 0, len(cur)-1
	if opts.Window > 0 {
		if l := pos - opts.Window; l > lo {
			lo = l
		}
		if h := pos + opts.Window; h < hi {
			hi = h
		}
	}
	bestSize := m.numAlloc
	bestPos := pos
	budget := growthBudget(bestSize)

	moveDown := func() {
		w, w2 := widths[pos], widths[pos+1]
		m.exchangeAdjacentBlocks(start, w, w2)
		widths[pos], widths[pos+1] = w2, w
		start += w2
		pos++
	}
	moveUp := func() {
		w, w2 := widths[pos], widths[pos-1]
		m.exchangeAdjacentBlocks(start-w2, w2, w)
		widths[pos-1], widths[pos] = w, w2
		start -= w2
		pos--
	}
	outOfTime := func() bool {
		if m.sift.timedOut {
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			m.sift.timedOut = true
			return true
		}
		return false
	}
	walk := func(down bool, until int) {
		for pos != until {
			if outOfTime() {
				return
			}
			if down {
				moveDown()
			} else {
				moveUp()
			}
			m.Stats.SiftTrials++
			if m.numAlloc < bestSize {
				bestSize = m.numAlloc
				bestPos = pos
				budget = growthBudget(bestSize)
			} else if m.numAlloc > budget {
				m.Stats.SiftAborts++
				return
			}
		}
	}
	if pos-lo <= hi-pos {
		walk(false, lo)
		walk(true, hi)
	} else {
		walk(true, hi)
		walk(false, lo)
	}
	for pos > bestPos {
		moveUp()
	}
	for pos < bestPos {
		moveDown()
	}
}

// growthBudget is the live count past which a block's walk in one
// direction gives up.
func growthBudget(size int) int {
	return int(maxGrowth*float64(size)) + 64
}
