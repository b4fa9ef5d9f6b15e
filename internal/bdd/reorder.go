package bdd

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Variable reordering.
//
// Two mechanisms change the variable order:
//
//   - Sifting (SiftNow, EnableAutoReorder) runs the in-place engine of
//     swap.go: every placement trial is a run of adjacent-level swaps,
//     each touching only the nodes at the two swapped levels and
//     preserving every other Ref bit-for-bit.
//
//   - reorderTo translates every root it must preserve into a fresh
//     arena under a given order and swaps the arena in, renumbering
//     every Ref. It serves explicit Reorder(order) calls (order
//     adoption in LoadNamed among them) and the group-adjacency
//     normalization that opens each sift. A rebuild is O(arena). Since
//     order and roots fix a canonical arena, it is also the oracle the
//     swap engine's tests compare node counts against.
//
// What makes reordering *dynamic* (usable mid-computation rather than
// only offline) is the live-root registry: long-lived holders of Refs —
// symbolic structures, checkers, saved witness rings — register a
// rewriter callback (OnReorder) or plain pointers (RegisterRefs), and
// every committed reorder rewrites their Refs in place (after an
// in-place sift the translation is the identity — the hook still fires
// so downstream caches invalidate on the same schedule). Registered
// refs are also treated as GC roots, so a registered local survives
// both a collection and a reorder.
//
// Sifting moves one block at a time: each GroupVars block (typically a
// current/next state-variable pair) travels as a unit, tried at every
// candidate position with the placement minimizing the live-node count
// kept. A walk that grows past maxGrowth times the best size so far
// stops in that direction and returns to the best position.
//
// Automatic reordering is growth-triggered: ReorderIfNeeded — called at
// safe points where every needed Ref is registered or protected — sifts
// when the live-node count exceeds GrowthTrigger times the post-last-sift
// size.

// rewriter is one registered reorder hook. The callback must be
// deterministic: it is invoked twice per reorder (first to collect the
// refs it holds, then to commit the translated values), and both
// invocations must visit the same refs.
type rewriter struct {
	id int
	fn func(translate func(Ref) Ref)
}

// OnReorder registers a rewriter callback and returns an id for
// Unregister. After every committed reorder the callback is invoked with
// a translation function and must pass every Ref its owner retains
// through it, storing the results back. The refs the callback visits are
// also marked during garbage collection, so they need no separate
// Protect. The callback must not invoke manager operations.
func (m *Manager) OnReorder(fn func(translate func(Ref) Ref)) int {
	m.nextHookID++
	m.rewriters = append(m.rewriters, rewriter{id: m.nextHookID, fn: fn})
	return m.nextHookID
}

// RegisterRefs registers plain Ref pointers: after every reorder each
// *p is rewritten in place, and the referenced nodes survive GC. Returns
// an id for Unregister. Typical use is protecting a fixpoint loop's
// local variables across safe points.
func (m *Manager) RegisterRefs(ps ...*Ref) int {
	return m.OnReorder(func(translate func(Ref) Ref) {
		for _, p := range ps {
			*p = translate(*p)
		}
	})
}

// Unregister removes a rewriter previously installed with OnReorder or
// RegisterRefs. Unknown ids are ignored.
func (m *Manager) Unregister(id int) {
	for i, rw := range m.rewriters {
		if rw.id == id {
			m.rewriters = append(m.rewriters[:i], m.rewriters[i+1:]...)
			return
		}
	}
}

// GroupVars declares that the given variables form one sifting block:
// they are kept adjacent and moved as a unit. The standard use is one
// call per state variable with its current/next pair — splitting such a
// pair explodes the transition relation, so sifting must never consider
// it. A variable may belong to at most one group.
func (m *Manager) GroupVars(vars ...int) {
	if len(vars) == 0 {
		return
	}
	for _, v := range vars {
		if v < 0 || v >= m.NumVars() {
			panic(fmt.Sprintf("bdd: GroupVars: variable %d out of range", v))
		}
		for _, g := range m.groups {
			for _, w := range g {
				if v == w {
					panic(fmt.Sprintf("bdd: GroupVars: variable %d already grouped", v))
				}
			}
		}
	}
	m.groups = append(m.groups, append([]int(nil), vars...))
}

// Fixed sifting policy: a block's walk in one direction stops once the
// live count exceeds maxGrowth times the best size seen (plus a small
// slack for tiny managers), and passes stop once one shrinks the live
// count by less than the minImprove fraction.
const (
	maxGrowth  = 1.2
	minImprove = 0.03
)

// ReorderOptions tunes the automatic sifting policy.
type ReorderOptions struct {
	// GrowthTrigger: sift when live nodes exceed this multiple of the
	// post-last-sift size (default 2.0).
	GrowthTrigger float64
	// MinNodes: never auto-sift below this many live nodes (default 16k).
	MinNodes int
	// MaxPasses bounds the converging sift passes per event (default 3).
	MaxPasses int
	// MaxBlocks: sift only the top-contributing blocks per pass
	// (0 = all blocks).
	MaxBlocks int
	// Window: try positions at most this far from a block's current one
	// (0 = every position).
	Window int
	// SiftMaxTime bounds the wall time of one sift event. It is checked
	// at swap granularity: when the budget runs out the block being
	// sifted still returns to its best position, the event ends
	// cleanly, and Stats.SiftTimeouts is bumped. 0 = no bound.
	SiftMaxTime time.Duration
}

// DefaultReorderOptions returns the default automatic-sifting policy.
func DefaultReorderOptions() ReorderOptions {
	return ReorderOptions{
		GrowthTrigger: 2.0,
		MinNodes:      1 << 14,
		MaxPasses:     3,
	}
}

func (o *ReorderOptions) fillDefaults() {
	d := DefaultReorderOptions()
	if o.GrowthTrigger <= 1 {
		o.GrowthTrigger = d.GrowthTrigger
	}
	if o.MinNodes <= 0 {
		o.MinNodes = d.MinNodes
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = d.MaxPasses
	}
}

// EnableAutoReorder turns on growth-triggered sifting. A nil opts uses
// DefaultReorderOptions; zero fields of a non-nil opts are filled with
// the defaults (MaxBlocks and Window keep 0 = unlimited).
func (m *Manager) EnableAutoReorder(opts *ReorderOptions) {
	o := DefaultReorderOptions()
	if opts != nil {
		o = *opts
		o.fillDefaults()
	}
	m.reorderOpts = o
	m.autoReorder = true
	m.lastSiftSize = m.numAlloc
	if m.lastSiftSize < 1 {
		m.lastSiftSize = 1
	}
}

// DisableAutoReorder turns growth-triggered sifting off.
func (m *Manager) DisableAutoReorder() { m.autoReorder = false }

// AutoReorderEnabled reports whether growth-triggered sifting is on.
func (m *Manager) AutoReorderEnabled() bool { return m.autoReorder }

// PauseAutoReorder suspends growth-triggered sifting and returns the
// function that resumes it. Calls nest. Use around code that holds
// unregistered Refs across operations — witness walks, trace validation.
func (m *Manager) PauseAutoReorder() func() {
	m.reorderPause++
	return func() { m.reorderPause-- }
}

// ReorderIfNeeded is the safe-point check: if automatic reordering is
// enabled, not paused, and the live-node count has grown past
// GrowthTrigger times the post-last-sift size, it runs a sift and
// reports true. Callers must ensure every Ref they still need is
// protected or registered before calling.
func (m *Manager) ReorderIfNeeded() bool {
	if !m.autoReorder || m.reorderPause > 0 || m.reordering {
		return false
	}
	if m.numAlloc < m.reorderOpts.MinNodes {
		return false
	}
	if float64(m.numAlloc) < m.reorderOpts.GrowthTrigger*float64(m.lastSiftSize) {
		return false
	}
	m.Stats.AutoReorders++
	m.SiftNow()
	return true
}

// Reorder rebuilds the manager under the new variable order (order[i] is
// the variable to be placed at level i) and returns the given roots
// translated, in the same positions. Protected roots and every ref held
// by a registered rewriter are translated as well; any other Ref is
// invalidated. Registered Permutations remain valid because they are
// expressed over variable indices, not levels.
func (m *Manager) Reorder(order []int, roots []Ref) []Ref {
	m.validateOrder(order)
	for _, r := range roots {
		m.checkRef(r)
	}
	return m.reorderTo(order, roots)
}

func (m *Manager) validateOrder(order []int) {
	if len(order) != m.NumVars() {
		panic("bdd: order length mismatch")
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			panic("bdd: order is not a permutation of the variables")
		}
		seen[v] = true
	}
}

// freshForReorder allocates a bare arena for a rebuild under the given
// order: per-level subtables pre-sized to the mean level population, a
// small ITE cache for composeVar's out-of-order fallback, and nothing
// else — the full caches are rebuilt on demand after the commit.
func (m *Manager) freshForReorder(order []int) *Manager {
	per := 1 << 4
	if len(order) > 0 {
		for per*len(order)*2 < m.numAlloc {
			per <<= 1
		}
	}
	fresh := &Manager{
		ite:       make([]iteEntry, 1<<14),
		var2level: make([]int, len(order)),
		level2var: make([]int, len(order)),
		tables:    make([]subtable, len(order)),
		noComp:    m.noComp, // the fresh arena must share the representation
	}
	for l := range fresh.tables {
		fresh.tables[l] = newSubtable(per)
	}
	fresh.nodes = make([]node, 1, m.numAlloc+1)
	fresh.nodes[0] = node{lvl: terminalLevel, low: False, high: False}
	fresh.numAlloc = 1
	copy(fresh.level2var, order)
	for l, v := range order {
		fresh.var2level[v] = l
	}
	return fresh
}

// reorderTo rebuilds the arena under order, behind Reorder and the
// group normalization of SiftNow. It runs in three phases:
//
//  1. collect: every root the rebuild must preserve — extra, the
//     protected roots, and each registered rewriter's refs (gathered by
//     invoking the rewriter with an identity collector);
//  2. translate: rebuild the collected roots in a fresh arena;
//  3. commit: swap the arena in, remap the protected-root table, clear
//     the operation caches, and invoke every rewriter with the memoized
//     translation so clients see the new Refs.
func (m *Manager) reorderTo(order []int, extra []Ref) []Ref {
	// Phase 1: collect.
	collected := make([]Ref, 0, len(extra)+len(m.roots))
	collected = append(collected, extra...)
	for r := range m.roots {
		collected = append(collected, r)
	}
	for _, rw := range m.rewriters {
		rw.fn(func(r Ref) Ref {
			m.checkRef(r)
			collected = append(collected, r)
			return r
		})
	}
	// The protected roots come out of a map in random order, and the
	// order of translation fixes the fresh arena's node numbering.
	// Sorting makes the numbering, and every computed-table hit pattern
	// after it, the same from run to run.
	slices.Sort(collected)

	// Phase 2: translate.
	fresh := m.freshForReorder(order)
	// memo maps old plain ref -> new plain ref (0 = untranslated). The
	// sign splits off before the lookup and is re-applied to the result:
	// translating preserves the function, and a plain canonical ref
	// denotes a function that is false on the all-false assignment, so
	// the translation of a plain non-terminal ref is always plain and
	// non-zero — the 0 sentinel stays unambiguous.
	memo := make([]Ref, len(m.nodes))
	var translate func(Ref) Ref
	translate = func(f Ref) Ref {
		if IsTerminal(f) {
			return f
		}
		s := f & compBit
		fp := f ^ s
		if r := memo[fp]; r != 0 {
			return r ^ s
		}
		n := m.nodes[fp]
		low := translate(n.low)
		high := translate(n.high)
		v := m.level2var[n.lvl&^markBit]
		res := fresh.composeVar(v, low, high)
		memo[fp] = res
		return res ^ s
	}
	for _, r := range collected {
		translate(r)
	}

	// Phase 3: commit.
	lookup := func(r Ref) Ref {
		if IsTerminal(r) {
			return r
		}
		s := r & compBit
		rp := r ^ s
		if int(rp) >= len(memo) || memo[rp] == 0 {
			panic("bdd: reorder rewriter returned a ref it did not collect")
		}
		return memo[rp] ^ s
	}
	out := make([]Ref, len(extra))
	for i, r := range extra {
		out[i] = lookup(r)
	}
	newRoots := make(map[Ref]int, len(m.roots))
	for r, c := range m.roots {
		newRoots[lookup(r)] += c
	}
	m.nodes = fresh.nodes
	m.tables = fresh.tables
	m.free = fresh.free
	m.numFree = fresh.numFree
	m.numAlloc = fresh.numAlloc
	m.var2level = fresh.var2level
	m.level2var = fresh.level2var
	m.roots = newRoots
	m.clearCaches()
	for _, rw := range m.rewriters {
		rw.fn(lookup)
	}
	m.Stats.Reorderings++
	return out
}

// Sift runs a full sifting pass over the manager and returns the given
// roots translated to the new order. The roots are registered for the
// duration, so — unlike the pre-registry implementation — every other
// protected or registered Ref is rewritten too instead of dangling.
// Unprotected, unregistered Refs are invalidated (a collection runs
// first).
func (m *Manager) Sift(roots []Ref) []Ref {
	out := append([]Ref(nil), roots...)
	if m.NumVars() <= 1 {
		return out
	}
	if len(out) > 0 {
		id := m.OnReorder(func(translate func(Ref) Ref) {
			for i := range out {
				out[i] = translate(out[i])
			}
		})
		defer m.Unregister(id)
	}
	m.SiftNow()
	return out
}

// SiftNow runs converging block-sifting passes of the in-place swap
// engine until a pass improves by less than minImprove or MaxPasses is
// reached. Garbage is collected first, so every Ref the caller needs
// must be protected or registered.
func (m *Manager) SiftNow() {
	if m.reordering || m.NumVars() <= 1 {
		return
	}
	m.reordering = true
	defer func() { m.reordering = false }()
	start := time.Now()
	m.GC()
	before := m.numAlloc
	opts := m.reorderOpts

	// Normalize: force every group's variables adjacent so blocks are
	// contiguous level ranges from here on.
	if norm := flattenBlocks(m.blockOrder()); !slices.Equal(norm, m.level2var) {
		m.reorderTo(norm, nil)
	}
	m.siftInPlace(&opts)
	m.lastSiftSize = m.numAlloc
	m.Stats.ReorderTime += time.Since(start)
	m.Stats.ReorderSavedNodes += int64(before - m.numAlloc)
}

// blockOrder returns the sifting blocks in current level order: each
// group one block (members sorted by level), every ungrouped variable a
// singleton.
func (m *Manager) blockOrder() [][]int {
	groupOf := make(map[int]int)
	for gi, g := range m.groups {
		for _, v := range g {
			groupOf[v] = gi
		}
	}
	emitted := make(map[int]bool)
	var blocks [][]int
	for _, v := range m.level2var {
		gi, grouped := groupOf[v]
		if !grouped {
			blocks = append(blocks, []int{v})
			continue
		}
		if emitted[gi] {
			continue
		}
		emitted[gi] = true
		g := append([]int(nil), m.groups[gi]...)
		sort.Slice(g, func(i, j int) bool { return m.var2level[g[i]] < m.var2level[g[j]] })
		blocks = append(blocks, g)
	}
	return blocks
}

func flattenBlocks(blocks [][]int) []int {
	var out []int
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}
