package bdd

import (
	"fmt"
	"slices"
	"time"
)

// Variable reordering.
//
// One engine changes the variable order: the in-place adjacent-level
// swap of swap.go. Sifting (SiftNow, EnableAutoReorder) tries block
// placements by runs of swaps; Reorder(order) — explicit calls, order
// adoption in LoadNamed, and the group normalization that opens each
// sift — bubbles every variable to its target level by swaps. A swap
// rewrites only the nodes at the two swapped levels and keeps every
// node at its arena index, so a Ref never moves: every Ref that
// survives the collection an order change starts with keeps its value
// and denotes the same function afterwards.
//
// What an order change needs from the manager's clients is therefore
// only its roots. Every order change starts with a collection, which
// frees each node no root reaches, and the swaps' liveness refcounts
// count the same roots. The roots are the protected refs (Protect) and
// the refs of registered root sets: RegisterRoots takes a callback that
// visits the refs its owner holds, RegisterRefs plain pointers (a
// fixpoint's locals across its safe points). Refs held in neither place
// must not be used across a collection or an order change.
//
// Computed tables follow the collection: a collection that frees a node
// and the first swap of an order change clear them, since a freed slot
// may be reused under a cached result; an order change that runs no
// swap after a collection that frees nothing keeps them warm.
//
// Sifting moves one block at a time: each GroupVars block (typically a
// current/next state-variable pair) travels as a unit, tried at every
// candidate position with the placement minimizing the live-node count
// kept. A walk that grows past maxGrowth times the best size so far
// stops in that direction and returns to the best position.
//
// Automatic reordering is growth-triggered: ReorderIfNeeded — called at
// safe points where every needed Ref is protected or registered — sifts
// when the live-node count exceeds GrowthTrigger times the post-last-sift
// size.

// rootSet is one registered root callback (see RegisterRoots).
type rootSet struct {
	id int
	fn func(visit func(Ref))
}

// RegisterRoots registers a root callback and returns an id for
// Unregister. Every collection, and every swap session of an order
// change, invokes it with a visitor that the callback must pass every
// Ref its owner retains: those refs are GC roots as protected refs are.
// A ref never moves, so there is nothing to write back. The callback
// must not invoke manager operations.
func (m *Manager) RegisterRoots(fn func(visit func(Ref))) int {
	m.nextRootsID++
	m.rootSets = append(m.rootSets, rootSet{id: m.nextRootsID, fn: fn})
	return m.nextRootsID
}

// RegisterRefs registers plain Ref pointers as roots: the nodes each *p
// names when a collection or an order change runs survive it. Returns
// an id for Unregister. Typical use is keeping a fixpoint loop's local
// variables alive across safe points.
func (m *Manager) RegisterRefs(ps ...*Ref) int {
	return m.RegisterRoots(func(visit func(Ref)) {
		for _, p := range ps {
			visit(*p)
		}
	})
}

// Unregister removes a root set previously installed with RegisterRoots
// or RegisterRefs. Unknown ids are ignored.
func (m *Manager) Unregister(id int) {
	for i, rs := range m.rootSets {
		if rs.id == id {
			m.rootSets = append(m.rootSets[:i], m.rootSets[i+1:]...)
			return
		}
	}
}

// visitRoots passes every root to visit: each protected ref once, then
// the refs of every registered root set.
func (m *Manager) visitRoots(visit func(Ref)) {
	for r := range m.roots {
		visit(r)
	}
	for _, rs := range m.rootSets {
		rs.fn(func(r Ref) {
			m.checkRef(r)
			visit(r)
		})
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
// the defaults (MaxBlocks and Window keep 0 = unlimited). Turning it on
// takes the current allocated-node count as the growth baseline; while
// it is already on, a call replaces the options and keeps the baseline.
func (m *Manager) EnableAutoReorder(opts *ReorderOptions) {
	o := DefaultReorderOptions()
	if opts != nil {
		o = *opts
		o.fillDefaults()
	}
	m.reorderOpts = o
	if m.autoReorder {
		// Re-arming changes the policy only: growth is still measured
		// from the size the last sift left.
		return
	}
	m.autoReorder = true
	m.lastSiftSize = max(m.numAlloc, 1)
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

// Reorder moves the manager to the given variable order (order[i] is
// the variable to be placed at level i) by adjacent-level swaps. Garbage
// is collected first, so every Ref the caller needs must be protected
// or registered; those keep their values and functions. Registered
// Permutations remain valid because they are expressed over variable
// indices, not levels.
func (m *Manager) Reorder(order []int) {
	m.validateOrder(order)
	m.moveTo(order)
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

// moveTo is Reorder without the validation, and SiftNow's group
// normalization: a collection, then one swap session that bubbles each
// variable up to its target level, top level first. That takes one swap
// per pair of variables the two orders rank differently, the fewest
// adjacent swaps that reach order. Stats.Reorderings counts the call
// only when the order changes; when it is already order, the call just
// collects.
func (m *Manager) moveTo(order []int) {
	m.GC()
	if slices.Equal(order, m.level2var) {
		return
	}
	m.beginSwapSession()
	for l, v := range order {
		for k := m.var2level[v]; k > l; k-- {
			m.swapLevels(k - 1)
		}
	}
	m.endSwapSession()
	m.Stats.Reorderings++
}

// SiftNow runs converging block-sifting passes of the in-place swap
// engine until a pass improves by less than minImprove or MaxPasses is
// reached. Garbage is collected first, so every Ref the caller needs
// must be protected or registered; those keep their values. The unique
// subtables end fitted to the live nodes (see endSwapSession).
func (m *Manager) SiftNow() {
	if m.reordering || m.NumVars() <= 1 {
		return
	}
	m.reordering = true
	defer func() { m.reordering = false }()
	start := time.Now()
	// Normalize: force every group's variables adjacent so blocks are
	// contiguous level ranges from here on. moveTo collects first, also
	// when the groups already are adjacent.
	groupOf := m.groupIndex()
	m.moveTo(flattenBlocks(m.blockOrder(groupOf)))
	before := m.numAlloc
	opts := m.reorderOpts
	m.siftInPlace(&opts, groupOf)
	m.lastSiftSize = m.numAlloc
	m.Stats.ReorderTime += time.Since(start)
	m.Stats.ReorderSavedNodes += int64(before - m.numAlloc)
}

// groupIndex maps each variable to the index of its group in m.groups,
// or -1 when it is ungrouped. A sift computes it once.
func (m *Manager) groupIndex() []int {
	groupOf := make([]int, m.NumVars())
	for v := range groupOf {
		groupOf[v] = -1
	}
	for gi, g := range m.groups {
		for _, v := range g {
			groupOf[v] = gi
		}
	}
	return groupOf
}

// blockOrder returns the sifting blocks in current level order: each
// group one block (members sorted by level) placed at its top member's
// level, every ungrouped variable a singleton. groupOf is groupIndex's.
func (m *Manager) blockOrder(groupOf []int) [][]int {
	blockOf := make([]int, len(m.groups)) // 1 + index in blocks of each group's block, 0 before it
	blocks := make([][]int, 0, len(m.level2var))
	for _, v := range m.level2var {
		switch gi := groupOf[v]; {
		case gi < 0:
			blocks = append(blocks, []int{v})
		case blockOf[gi] == 0:
			blocks = append(blocks, []int{v})
			blockOf[gi] = len(blocks)
		default:
			b := blockOf[gi] - 1
			blocks[b] = append(blocks[b], v)
		}
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
