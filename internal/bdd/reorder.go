package bdd

import (
	"fmt"
	"sort"
	"time"
)

// Variable reordering.
//
// Two engines share this file's policy layer:
//
//   - The rebuild engine (reorderTo) translates every root it must
//     preserve into a fresh arena under the new order and swaps the
//     arena in. It serves explicit Reorder(order) calls, group-adjacency
//     normalization, and acts as the differential oracle for the swap
//     engine. A rebuild is O(arena).
//
//   - The in-place engine (swap.go) realizes sifting as sequences of
//     adjacent-level swaps, each touching only the nodes at the two
//     swapped levels and preserving every other Ref bit-for-bit. It is
//     the default behind SiftNow/EnableAutoReorder; set
//     ReorderOptions.UseRebuildSift to fall back to the rebuild engine.
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
// kept. Trials growing past MaxGrowth times the best size so far are
// abandoned (the rebuild engine aborts mid-translation; the swap engine
// stops walking in that direction and returns to the best position).
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

// Groups returns a copy of the registered sifting blocks.
func (m *Manager) Groups() [][]int {
	out := make([][]int, len(m.groups))
	for i, g := range m.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// ReorderOptions tunes the automatic sifting policy.
type ReorderOptions struct {
	// GrowthTrigger: sift when live nodes exceed this multiple of the
	// post-last-sift size (default 2.0).
	GrowthTrigger float64
	// MinNodes: never auto-sift below this many live nodes (default 16k).
	MinNodes int
	// MaxGrowth: abort a placement trial whose rebuilt arena exceeds this
	// multiple of the best size found so far (default 1.2).
	MaxGrowth float64
	// MaxPasses bounds the converging sift passes per event (default 3).
	MaxPasses int
	// MinImprove: stop passes early once a pass shrinks the live count by
	// less than this fraction (default 0.03).
	MinImprove float64
	// MaxBlocks: sift only the top-contributing blocks per pass
	// (0 = all blocks).
	MaxBlocks int
	// Window: try positions at most this far from a block's current one
	// (0 = every position).
	Window int
	// SiftMaxTime bounds the wall time of one sift event. The in-place
	// engine checks it at swap granularity: when the budget runs out the
	// block being sifted still returns to its best position, the event
	// ends cleanly, and Stats.SiftTimeouts is bumped. 0 = no bound.
	SiftMaxTime time.Duration
	// UseRebuildSift routes SiftNow through the legacy rebuild engine
	// (every trial re-translates the arena) instead of in-place swaps.
	// Kept as a differential oracle and benchmark baseline.
	UseRebuildSift bool
}

// DefaultReorderOptions returns the default automatic-sifting policy.
func DefaultReorderOptions() ReorderOptions {
	return ReorderOptions{
		GrowthTrigger: 2.0,
		MinNodes:      1 << 14,
		MaxGrowth:     1.2,
		MaxPasses:     3,
		MinImprove:    0.03,
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
	if o.MaxGrowth <= 1 {
		o.MaxGrowth = d.MaxGrowth
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = d.MaxPasses
	}
	if o.MinImprove <= 0 {
		o.MinImprove = d.MinImprove
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
	out, _ := m.reorderTo(order, roots, 0)
	return out
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
// else — trial rebuilds during sifting are frequent and must not
// allocate the full caches.
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
		noComp:    m.noComp, // trial arenas must share the representation
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

// reorderTo is the rebuild engine behind Reorder and sifting. It runs in
// three phases so a budget abort cannot leave clients inconsistent:
//
//  1. collect: every root the swap must preserve — extra, the protected
//     roots, and each registered rewriter's refs (gathered by invoking
//     the rewriter with an identity collector);
//  2. translate: rebuild the collected roots in a fresh arena; if budget
//     is non-zero and the fresh arena outgrows it, abandon the arena and
//     return (nil, false) with the manager untouched;
//  3. commit: swap the arena in, remap the protected-root table, clear
//     the operation caches, and invoke every rewriter with the memoized
//     translation so clients see the new Refs.
func (m *Manager) reorderTo(order []int, extra []Ref, budget int) ([]Ref, bool) {
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

	// Phase 2: translate.
	fresh := m.freshForReorder(order)
	// memo maps old plain ref -> new plain ref (0 = untranslated). The
	// sign splits off before the lookup and is re-applied to the result:
	// translating preserves the function, and a plain canonical ref
	// denotes a function that is false on the all-false assignment, so
	// the translation of a plain non-terminal ref is always plain and
	// non-zero — the 0 sentinel stays unambiguous.
	memo := make([]Ref, len(m.nodes))
	aborted := false
	var translate func(Ref) Ref
	translate = func(f Ref) Ref {
		if IsTerminal(f) || aborted {
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
		if aborted {
			return False
		}
		v := m.level2var[n.lvl&^markBit]
		res := fresh.composeVar(v, low, high)
		if budget > 0 && fresh.numAlloc > budget {
			aborted = true
			return False
		}
		memo[fp] = res
		return res ^ s
	}
	for _, r := range collected {
		translate(r)
		if aborted {
			return nil, false
		}
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
	return out, true
}

// TotalSize returns the number of distinct nodes used by all roots
// together (shared nodes counted once; a root and its complement share
// everything).
func (m *Manager) TotalSize(roots []Ref) int {
	seen := make(map[Ref]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		g &^= compBit
		if seen[g] {
			return
		}
		seen[g] = true
		if g == 0 {
			return
		}
		n := &m.nodes[g]
		walk(n.low)
		walk(n.high)
	}
	for _, r := range roots {
		walk(r)
	}
	return len(seen)
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

// SiftNow runs converging block-sifting passes until the improvement
// drops below MinImprove or MaxPasses is reached. Garbage is collected
// first, so every Ref the caller needs must be protected or registered.
// The in-place swap engine runs unless UseRebuildSift selects the
// legacy rebuild engine.
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
	if norm := flattenBlocks(m.blockOrder()); !equalOrder(norm, m.level2var) {
		m.reorderTo(norm, nil, 0)
	}
	if opts.UseRebuildSift {
		m.siftNowRebuild(&opts)
	} else {
		m.siftNowSwap(&opts)
	}
	m.lastSiftSize = m.numAlloc
	m.Stats.ReorderTime += time.Since(start)
	m.Stats.ReorderSavedNodes += int64(before - m.numAlloc)
}

// siftNowRebuild is the legacy engine: every placement trial rebuilds
// the arena under the candidate order. O(arena × trials); kept behind
// UseRebuildSift as differential oracle and benchmark baseline. It
// ignores SiftMaxTime (its trial granularity is a whole rebuild).
func (m *Manager) siftNowRebuild(opts *ReorderOptions) {
	size := m.numAlloc
	for pass := 0; pass < opts.MaxPasses; pass++ {
		m.Stats.SiftPasses++
		prev := size
		size = m.siftPass(opts)
		if prev-size < int(opts.MinImprove*float64(prev)) {
			break
		}
	}
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

func equalOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// siftPass sifts the blocks in decreasing order of contribution (live
// nodes labeled with the block's variables) and returns the resulting
// live-node count.
func (m *Manager) siftPass(opts *ReorderOptions) int {
	blocks := m.blockOrder()
	if len(blocks) <= 1 {
		return m.numAlloc
	}
	blockOf := make(map[int]int)
	for bi, b := range blocks {
		for _, v := range b {
			blockOf[v] = bi
		}
	}
	contrib := make([]int, len(blocks))
	for i := 1; i < len(m.nodes); i++ {
		lvl := m.nodes[i].lvl &^ markBit
		if lvl == terminalLevel { // free-list node
			continue
		}
		contrib[blockOf[m.level2var[lvl]]]++
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
		if contrib[bi] == 0 {
			continue
		}
		m.siftBlock(blocks[bi], opts)
	}
	return m.numAlloc
}

// siftBlock tries the block at every candidate position (all of them, or
// within Window of the current one) and leaves the manager at the best
// placement found. Trials growing past MaxGrowth times the best size so
// far abort without effect.
func (m *Manager) siftBlock(block []int, opts *ReorderOptions) {
	cur := m.blockOrder()
	pos := -1
	for i, b := range cur {
		if b[0] == block[0] {
			pos = i
			break
		}
	}
	if pos < 0 || len(cur) <= 1 {
		return
	}
	bestSize := m.numAlloc
	bestOrder := flattenBlocks(cur)
	budget := growthBudget(opts, bestSize)
	lo, hi := 0, len(cur)-1
	if opts.Window > 0 {
		if l := pos - opts.Window; l > lo {
			lo = l
		}
		if h := pos + opts.Window; h < hi {
			hi = h
		}
	}
	for t := lo; t <= hi; t++ {
		if t == pos {
			continue
		}
		cand := flattenBlocks(moveBlock(cur, pos, t))
		m.Stats.SiftTrials++
		if _, ok := m.reorderTo(cand, nil, budget); !ok {
			m.Stats.SiftAborts++
			continue
		}
		if m.numAlloc < bestSize {
			bestSize = m.numAlloc
			bestOrder = cand
			budget = growthBudget(opts, bestSize)
		}
	}
	if !equalOrder(bestOrder, m.level2var) {
		m.reorderTo(bestOrder, nil, 0)
	}
}

func growthBudget(opts *ReorderOptions, size int) int {
	return int(opts.MaxGrowth*float64(size)) + 64
}

// moveBlock returns a copy of blocks with the element at from moved to
// position to.
func moveBlock(blocks [][]int, from, to int) [][]int {
	out := make([][]int, 0, len(blocks))
	b := blocks[from]
	for i, x := range blocks {
		if i == from {
			continue
		}
		out = append(out, x)
	}
	out = append(out, nil)
	copy(out[to+1:], out[to:])
	out[to] = b
	return out
}
