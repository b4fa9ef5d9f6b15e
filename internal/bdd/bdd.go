// Package bdd implements reduced ordered binary decision diagrams (OBDDs)
// as described in Section 2 of Clarke, Grumberg, McMillan and Zhao,
// "Efficient Generation of Counterexamples and Witnesses in Symbolic Model
// Checking" (CMU-CS-94-204 / DAC 1995), following Bryant's original
// construction with the complement-edge refinement of Brace, Rudell and
// Bryant ("Efficient Implementation of a BDD Package", DAC 1990).
//
// Nodes live in a growable arena and are addressed by compact Ref handles.
// Bit 31 of a Ref is the complement bit: ¬f is the same node with the bit
// toggled, so negation is O(1) and allocates nothing, and a function and
// its complement share every node. The arena keeps a single terminal (the
// constant False at index 0); True is its complement. Canonical form is
// enforced the standard way: the else (low) edge of every stored node is
// non-complemented, with mk pulling the complement of an else edge up to
// the parent edge.
//
// For a fixed variable order the representation is canonical: two Refs
// from the same Manager are equal if and only if they denote the same
// boolean function, so equivalence checking is a single integer
// comparison — and checking f = ¬g is one comparison too.
//
// The package provides the operations the symbolic model checker needs:
// the 16 two-argument boolean connectives (via ITE with standard-triple
// and complement normalization, so e.g. f∧g, ¬(¬f∨¬g) and ITE(g,f,False)
// share one computed-cache line), restriction, existential and universal
// quantification, the combined relational product AndExists, variable
// permutation (current-state/next-state renaming), satisfying-assignment
// extraction, model counting, garbage collection and variable reordering.
//
// DisableComplementEdges keeps the pre-complement structural
// representation available behind the same API (negation materializes
// ¬f node by node, every edge is regular apart from the constant True
// itself): the differential suites run every model under both
// representations and demand identical verdicts.
package bdd

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// Ref is a handle to a BDD node within a particular Manager. Bit 31 is
// the complement bit: f and f^compBit denote complementary functions
// over the same node. The zero value is the constant false function.
type Ref uint32

// compBit is the complement flag of a Ref. The index bits below it
// address the node arena.
const compBit Ref = 1 << 31

// Terminal constants. The arena holds a single terminal node (index 0)
// denoting False; True is its complement. They are shared by
// construction across every Manager.
const (
	False Ref = 0
	True  Ref = compBit
)

// IsComplement reports whether the Ref carries the complement bit. It
// is a property of the handle, not of the function: the canonical form
// decides which of f, ¬f is stored plain.
func IsComplement(f Ref) bool { return f&compBit != 0 }

// Regular returns f with the complement bit cleared: the plain handle
// of the node f lives on.
func Regular(f Ref) Ref { return f &^ compBit }

// terminalLevel is the level assigned to the terminal node. It
// compares greater than every variable level, which lets the recursive
// operations treat terminals uniformly.
const terminalLevel uint32 = 0x7fffffff

// markBit is or-ed into a node's level during garbage collection.
const markBit uint32 = 0x80000000

// node is a single decision node: if the variable at lvl is false the
// function continues at low, otherwise at high. next chains nodes in the
// unique-table hash buckets.
type node struct {
	lvl  uint32
	low  Ref
	high Ref
	next uint32
}

// subtable is the unique table for a single level: an open hash with
// per-node chaining through node.next. Keeping one table per level is
// what makes an adjacent-level swap O(nodes at the two levels) — the
// swap detaches exactly two subtables and never scans the arena — and
// it gives exact per-level live counts (count) for free, which the
// sift driver reads instead of walking nodes.
type subtable struct {
	buckets []uint32
	mask    uint32
	count   int // live nodes at this level
}

// Manager owns an arena of BDD nodes, the unique table that enforces
// canonicity, and the operation caches. A Manager is not safe for
// concurrent use.
type Manager struct {
	nodes []node

	// unique table, split per level: tables[l] indexes the nodes whose
	// lvl field is l. The terminal lives in no table.
	tables []subtable

	free     uint32 // head of the free list (0 = empty; the terminal is never freed)
	numFree  int
	numAlloc int // live node count including the terminal

	// noComp disables complement edges (DisableComplementEdges): the
	// manager then runs the legacy structural representation — negation
	// builds ¬f node by node and no stored edge carries the complement
	// bit (only the constant True itself does). Kept as the differential
	// oracle for the complement-edge engine.
	noComp bool

	// variable order: var2level[v] is the level of variable v.
	var2level []int
	level2var []int

	ite   []iteEntry
	binop []binEntry
	aex   []aexEntry // lazily allocated by AndExists

	// cacheSize is the current entry count of each computed table
	// (always a power of two). cachePinned is set by SetCacheSize and
	// stops the automatic arena-proportional growth.
	cacheSize   int
	cachePinned bool

	perms []*Permutation // registered variable permutations

	roots map[Ref]int // protected external references

	// Live-root registry (see reorder.go): every registered rewriter is
	// invoked after a reorder to translate the Refs its owner holds, and
	// its refs are treated as GC roots.
	rewriters  []rewriter
	nextHookID int

	groups [][]int // variable blocks that sift as one unit (GroupVars)

	// Automatic dynamic-reordering state (see reorder.go).
	reorderOpts  ReorderOptions
	autoReorder  bool
	reorderPause int  // PauseAutoReorder nesting depth
	reordering   bool // true while a sift is running (reentrancy guard)
	lastSiftSize int  // live nodes after the most recent sift

	// sift is non-nil while an in-place swap session is active; it holds
	// the liveness refcounts that swapLevels needs (see swap.go).
	sift *siftState

	gcThreshold int // run GC opportunistically above this many live nodes

	// Stats accumulates counters since the Manager was created.
	Stats Stats
}

// Stats records operation counters for benchmarking and regression tests.
type Stats struct {
	ITECalls     uint64
	CacheHits    uint64
	CacheLookups uint64
	GCRuns       uint64
	NodesFreed   uint64
	Reorderings  uint64
	CacheGrowths uint64 // computed-table resizes (automatic + SetCacheSize)

	// Relational-product counters: top-level AndExists calls and the
	// dedicated triple-cache traffic of its recursion. Hit rate here is
	// the observability signal for partitioned image computation.
	AndExistsCalls   uint64
	AndExistsLookups uint64
	AndExistsHits    uint64

	// Dynamic-reordering counters (see reorder.go and swap.go).
	// Reorderings counts committed order changes: every arena rebuild
	// (explicit Reorder and rebuild-engine sift trials) plus every
	// in-place sift event that ends on a different order than it
	// started. AutoReorders counts growth-triggered sift events.
	// SiftTrials counts candidate block positions evaluated, SiftSwaps
	// the adjacent-level swaps executed, SiftTimeouts the sift events
	// cut short by ReorderOptions.SiftMaxTime. ReorderSavedNodes sums
	// the live-node reduction over all sifts and ReorderTime the wall
	// time spent sifting.
	AutoReorders      uint64
	SiftPasses        uint64
	SiftTrials        uint64
	SiftAborts        uint64
	SiftSwaps         uint64
	SiftTimeouts      uint64
	ReorderSavedNodes int64
	ReorderTime       time.Duration

	// Deprecated: the manager is single-threaded and never opens a
	// parallel section, so ParallelSections is always 0. It remains only
	// for perfbench's bdd.par_sections metric.
	ParallelSections uint64
	// Deprecated: always 0, as ParallelSections; kept for perfbench's
	// bdd.par_forks metric.
	ParallelForks uint64
	// Deprecated: always 0, as ParallelSections; kept for perfbench's
	// bdd.par_retries metric.
	ParallelRetries uint64
}

type iteEntry struct {
	f, g, h Ref
	res     Ref
	valid   bool
}

type binEntry struct {
	op   uint32
	f, g Ref
	res  Ref
}

// Cache/bucket sizing. The computed tables start at defaultCacheSize
// entries and, unless pinned with SetCacheSize, grow with the arena up
// to maxAutoCacheSize: a direct-mapped cache much smaller than the live
// node count thrashes, and the fixpoint engines re-derive the same
// subproblems over and over.
const (
	initialLevelBuckets = 1 << 6 // per-level subtable start size
	defaultCacheSize    = 1 << 16
	maxAutoCacheSize    = 1 << 21
)

// Option configures a Manager at construction time.
type Option func(*Manager)

// DisableComplementEdges selects the legacy structural representation:
// no stored edge carries the complement bit (True, being ¬False by
// definition, is the single exception) and Not(f) materializes the
// complement node by node. The resulting manager is semantically
// equivalent and serves as the differential oracle for the
// complement-edge engine.
func DisableComplementEdges() Option {
	return func(m *Manager) { m.noComp = true }
}

// New creates a Manager with numVars variables, numbered 0..numVars-1.
// The initial variable order is the identity (variable i at level i).
// More variables may be added later with AddVar.
func New(numVars int, opts ...Option) *Manager {
	if numVars < 0 {
		panic("bdd: negative variable count")
	}
	m := &Manager{
		ite:         make([]iteEntry, defaultCacheSize),
		binop:       make([]binEntry, defaultCacheSize),
		cacheSize:   defaultCacheSize,
		roots:       make(map[Ref]int),
		gcThreshold: 1 << 20,
		reorderOpts: DefaultReorderOptions(),
	}
	for _, o := range opts {
		o(m)
	}
	m.nodes = make([]node, 1, 1024)
	m.nodes[0] = node{lvl: terminalLevel, low: False, high: False}
	m.numAlloc = 1
	for i := 0; i < numVars; i++ {
		m.AddVar()
	}
	return m
}

// ComplementEdgesDisabled reports whether the manager runs the legacy
// structural representation (see DisableComplementEdges).
func (m *Manager) ComplementEdgesDisabled() bool { return m.noComp }

// AddVar appends a fresh variable at the bottom of the current order and
// returns its index.
func (m *Manager) AddVar() int {
	v := len(m.var2level)
	m.var2level = append(m.var2level, v)
	m.level2var = append(m.level2var, v)
	m.tables = append(m.tables, newSubtable(initialLevelBuckets))
	return v
}

// newSubtable returns an empty subtable with the given power-of-two
// bucket count.
func newSubtable(size int) subtable {
	return subtable{buckets: make([]uint32, size), mask: uint32(size - 1)}
}

// LevelCounts returns the current number of live nodes at each level
// (index = level). The counts are maintained incrementally by mk, GC
// and the in-place swap, so this is O(levels), not O(arena).
func (m *Manager) LevelCounts() []int {
	out := make([]int, len(m.tables))
	for i := range m.tables {
		out[i] = m.tables[i].count
	}
	return out
}

// LevelOccupancy pairs a level with the variable placed there and its
// live-node count.
type LevelOccupancy struct {
	Level int
	Var   int
	Count int
}

// TopLevels returns the k levels holding the most live nodes, fattest
// first (ties broken by level). Levels with zero nodes are omitted.
func (m *Manager) TopLevels(k int) []LevelOccupancy {
	all := make([]LevelOccupancy, 0, len(m.tables))
	for l := range m.tables {
		if c := m.tables[l].count; c > 0 {
			all = append(all, LevelOccupancy{Level: l, Var: m.level2var[l], Count: c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Level < all[j].Level
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// UniqueTableLoadFactor returns the mean occupancy of the unique-table
// buckets: live non-terminal nodes divided by the total bucket count
// over all per-level subtables. With chained buckets a load factor near
// or above 1 means longer probe chains on every mk.
func (m *Manager) UniqueTableLoadFactor() float64 {
	buckets := 0
	for i := range m.tables {
		buckets += len(m.tables[i].buckets)
	}
	if buckets == 0 {
		return 0
	}
	return float64(m.numAlloc-1) / float64(buckets)
}

// ArenaBytes returns the memory footprint of the node arena and the
// unique-table buckets in bytes (capacity, not just the live nodes).
// Divided by NumNodes it gives the bytes-per-live-node figure the
// benchmark recorders track.
func (m *Manager) ArenaBytes() int {
	const nodeBytes = 16 // lvl + low + high + next, 4 bytes each
	b := cap(m.nodes) * nodeBytes
	for i := range m.tables {
		b += len(m.tables[i].buckets) * 4
	}
	return b
}

// NumVars returns the number of variables managed.
func (m *Manager) NumVars() int { return len(m.var2level) }

// NumNodes returns the number of live nodes, including the terminal.
func (m *Manager) NumNodes() int { return m.numAlloc }

// LevelOf returns the current level of variable v.
func (m *Manager) LevelOf(v int) int { return m.var2level[v] }

// VarAtLevel returns the variable currently placed at the given level.
func (m *Manager) VarAtLevel(l int) int { return m.level2var[l] }

// Order returns a copy of the current variable order: element i is the
// variable at level i.
func (m *Manager) Order() []int {
	out := make([]int, len(m.level2var))
	copy(out, m.level2var)
	return out
}

// Var returns the BDD of the single variable v.
func (m *Manager) Var(v int) Ref {
	return m.mk(uint32(m.var2level[v]), False, True)
}

// NVar returns the BDD of the negation of variable v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(uint32(m.var2level[v]), True, False)
}

// Lit returns Var(v) if pos, NVar(v) otherwise.
func (m *Manager) Lit(v int, pos bool) Ref {
	if pos {
		return m.Var(v)
	}
	return m.NVar(v)
}

// IsTerminal reports whether f is one of the two constant functions.
func IsTerminal(f Ref) bool { return f&^compBit == 0 }

// level returns the level of f's node with the GC mark bit stripped.
func (m *Manager) level(f Ref) uint32 { return m.nodes[f&^compBit].lvl &^ markBit }

// Level returns the level of the top variable of f, or a value greater
// than any variable level if f is a terminal.
func (m *Manager) Level(f Ref) int { return int(m.level(f)) }

// TopVar returns the variable tested at the root of f. It panics on
// terminals.
func (m *Manager) TopVar(f Ref) int {
	if IsTerminal(f) {
		panic("bdd: TopVar of terminal")
	}
	return m.level2var[m.level(f)]
}

// low returns the else-cofactor of f: the stored else edge with f's
// complement bit pushed through. On a plain ref this is the raw edge.
func (m *Manager) low(f Ref) Ref { return m.nodes[f&^compBit].low ^ (f & compBit) }

// high returns the then-cofactor of f with the complement bit pushed
// through.
func (m *Manager) high(f Ref) Ref { return m.nodes[f&^compBit].high ^ (f & compBit) }

// Low returns the else-branch (variable false) of f, as a function:
// complement bits on f propagate to the returned cofactor.
func (m *Manager) Low(f Ref) Ref { return m.low(f) }

// High returns the then-branch (variable true) of f, with complement
// bits propagated.
func (m *Manager) High(f Ref) Ref { return m.high(f) }

// hash2 mixes a node's child pair into a bucket index. The level is not
// part of the hash: each level has its own table.
func hash2(low, high Ref, mask uint32) uint32 {
	x := uint64(low)*0xbf58476d1ce4e5b9 ^ uint64(high)*0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return uint32(x) & mask
}

// mk returns the canonical ref for (lvl, low, high), applying the
// reduction rules — equal children collapse, structurally identical
// nodes are shared through the level's unique subtable — and the
// complement-edge canonicalization: a complemented else edge is pulled
// up, storing the node over the complemented child pair and returning
// the complemented handle, so exactly one of f, ¬f owns a node.
func (m *Manager) mk(lvl uint32, low, high Ref) Ref {
	if low == high {
		return low
	}
	if !m.noComp && low&compBit != 0 {
		return m.mkRaw(lvl, low^compBit, high^compBit) ^ compBit
	}
	return m.mkRaw(lvl, low, high)
}

// mkRaw is the unique-table half of mk: hash-cons the exact triple.
func (m *Manager) mkRaw(lvl uint32, low, high Ref) Ref {
	st := &m.tables[lvl]
	b := hash2(low, high, st.mask)
	for i := st.buckets[b]; i != 0; i = m.nodes[i].next {
		n := &m.nodes[i]
		if n.low == low && n.high == high {
			return Ref(i)
		}
	}
	var idx uint32
	if m.free != 0 {
		idx = m.free
		m.free = m.nodes[idx].next
		m.numFree--
	} else {
		idx = uint32(len(m.nodes))
		m.nodes = append(m.nodes, node{})
	}
	m.nodes[idx] = node{lvl: lvl, low: low, high: high, next: st.buckets[b]}
	st.buckets[b] = idx
	st.count++
	m.numAlloc++
	if st.count > len(st.buckets)*3 {
		m.growSubtable(st)
	}
	return Ref(idx)
}

// growSubtable doubles one level's table and rehashes its chains. Only
// the nodes at that level are touched — growth never scans the arena.
func (m *Manager) growSubtable(st *subtable) {
	old := st.buckets
	st.buckets = make([]uint32, len(old)*2)
	st.mask = uint32(len(st.buckets) - 1)
	for _, head := range old {
		for i := head; i != 0; {
			n := &m.nodes[i]
			next := n.next
			b := hash2(n.low, n.high, st.mask)
			n.next = st.buckets[b]
			st.buckets[b] = i
			i = next
		}
	}
}

// insertNode links node i into the subtable of its (already set) level
// and bumps the level's live count.
func (m *Manager) insertNode(i uint32) {
	n := &m.nodes[i]
	st := &m.tables[n.lvl]
	b := hash2(n.low, n.high, st.mask)
	n.next = st.buckets[b]
	st.buckets[b] = i
	st.count++
	if st.count > len(st.buckets)*3 {
		m.growSubtable(st)
	}
}

// unlinkNode removes node i from its level's subtable.
func (m *Manager) unlinkNode(i uint32) {
	n := &m.nodes[i]
	st := &m.tables[n.lvl]
	b := hash2(n.low, n.high, st.mask)
	if st.buckets[b] == i {
		st.buckets[b] = n.next
	} else {
		j := st.buckets[b]
		for j != 0 && m.nodes[j].next != i {
			j = m.nodes[j].next
		}
		if j == 0 {
			panic("bdd: unlinkNode: node not in its level's table")
		}
		m.nodes[j].next = n.next
	}
	st.count--
}

// Protect registers f as an external root so that garbage collection
// keeps it (and everything it references) alive. Calls nest: each
// Protect must be balanced by one Unprotect. Protect returns f for
// convenience.
func (m *Manager) Protect(f Ref) Ref {
	m.roots[f]++
	return f
}

// Unprotect removes one protection from f.
func (m *Manager) Unprotect(f Ref) {
	c, ok := m.roots[f]
	if !ok {
		return
	}
	if c <= 1 {
		delete(m.roots, f)
	} else {
		m.roots[f] = c - 1
	}
}

// ProtectedCount returns the number of distinct protected roots.
func (m *Manager) ProtectedCount() int { return len(m.roots) }

// SetGCThreshold sets the live-node count above which MaybeGC collects.
func (m *Manager) SetGCThreshold(n int) { m.gcThreshold = n }

// checkRef panics if f is not a plausible node handle for this manager.
func (m *Manager) checkRef(f Ref) {
	if int(f&^compBit) >= len(m.nodes) {
		panic(fmt.Sprintf("bdd: invalid ref %d (arena size %d)", f, len(m.nodes)))
	}
}

// clearCaches invalidates the operation caches. Required after GC or
// reordering since cached results may reference freed nodes.
func (m *Manager) clearCaches() {
	for i := range m.ite {
		m.ite[i] = iteEntry{}
	}
	for i := range m.binop {
		m.binop[i] = binEntry{}
	}
	for i := range m.aex {
		m.aex[i] = aexEntry{}
	}
	for _, p := range m.perms {
		p.cache = nil
	}
}

// cacheIndex hashes up to four words into a cache slot index.
func cacheIndex(a, b, c, d uint32, size uint32) uint32 {
	x := uint64(a)*0x9e3779b97f4a7c15 + uint64(b)*0xbf58476d1ce4e5b9 +
		uint64(c)*0x94d049bb133111eb + uint64(d)*0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return uint32(x) & (size - 1)
}

// CacheSize returns the current entry count of each computed table
// (ITE, binary-op and AndExists caches are sized identically).
func (m *Manager) CacheSize() int { return m.cacheSize }

// SetCacheSize resizes the computed tables to n entries each and pins
// them there, disabling the automatic arena-proportional growth. n must
// be a power of two in [2^10, 2^24]. Resizing discards all cached
// results (the slot hash depends on the size), which is always safe —
// the tables are memoization only.
func (m *Manager) SetCacheSize(n int) error {
	if bits.OnesCount(uint(n)) != 1 {
		return fmt.Errorf("bdd: cache size %d is not a power of two", n)
	}
	if n < 1<<10 || n > 1<<24 {
		return fmt.Errorf("bdd: cache size %d outside [%d, %d]", n, 1<<10, 1<<24)
	}
	m.resizeCaches(n)
	m.cachePinned = true
	return nil
}

// resizeCaches reallocates the computed tables at n entries.
func (m *Manager) resizeCaches(n int) {
	m.cacheSize = n
	m.ite = make([]iteEntry, n)
	m.binop = make([]binEntry, n)
	if m.aex != nil {
		m.aex = make([]aexEntry, n)
	}
	m.Stats.CacheGrowths++
}

// maybeGrowCaches scales the computed tables with the arena: whenever
// the live-node count outgrows the cache, the cache doubles (up to
// maxAutoCacheSize) so the hit rate does not collapse on large models.
// Called at safe points only (MaybeGC, GC), never mid-recursion.
func (m *Manager) maybeGrowCaches() {
	if m.cachePinned || m.cacheSize >= maxAutoCacheSize {
		return
	}
	target := m.cacheSize
	for target < maxAutoCacheSize && m.numAlloc > target {
		target *= 2
	}
	if target > m.cacheSize {
		m.resizeCaches(target)
	}
}
