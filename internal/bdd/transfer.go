package bdd

// Cross-manager transfer. CopyTo moves a function between managers —
// isolating a sub-problem in a private arena, differential testing
// across configurations, or persisting into a fresh manager. The copy
// is structural — every node is re-created level-for-level through the
// destination's unique table — so it is only meaningful between
// managers that agree on the variable order; NewWithOrder exists to
// mint such scratch arenas from a live manager's current order.

// NewWithOrder creates a Manager over len(order) variables whose
// initial variable order places order[i] at level i (order must be a
// permutation of 0..len(order)-1). The arena starts empty apart from
// the terminal, so installing the order is free. Options (e.g.
// DisableComplementEdges) apply as in New; scratch managers minted for
// CopyTo must use the same representation as the source.
func NewWithOrder(order []int, opts ...Option) *Manager {
	m := New(len(order), opts...)
	m.validateOrder(order)
	copy(m.level2var, order)
	for l, v := range order {
		m.var2level[v] = l
	}
	return m
}

// CopyTo rebuilds f — a node of m — inside dst and returns the
// corresponding dst Ref. Both managers must place every variable at the
// same level (in practice dst is created with NewWithOrder(m.Order())):
// the copy re-creates each node at its source level through dst's
// unique table, and a mismatched order would silently assemble a
// diagram violating the ordering invariant, so CopyTo verifies the
// orders agree and panics otherwise. The managers must also agree on
// the node representation (complement edges on or off): a structural
// copy across representations would plant complemented edges in a
// manager whose algorithms assume there are none, so that too panics.
//
// CopyTo only reads m and only writes dst.
func (m *Manager) CopyTo(dst *Manager, f Ref) Ref {
	m.checkRef(f)
	if dst == m {
		return f
	}
	if dst.noComp != m.noComp {
		panic("bdd: CopyTo between managers with different node representations")
	}
	if len(dst.level2var) != len(m.level2var) {
		panic("bdd: CopyTo between managers with different variable counts")
	}
	for l, v := range m.level2var {
		if dst.level2var[l] != v {
			panic("bdd: CopyTo between managers with different variable orders")
		}
	}
	// Memoize on plain refs: f and ¬f share the same copied subgraph,
	// and a plain source ref always copies to a plain destination ref
	// (stored else edges are plain, so the sign of a canonical ref is
	// determined by the function's value at the all-false assignment,
	// which the copy preserves).
	memo := make(map[Ref]Ref)
	var walk func(Ref) Ref
	walk = func(g Ref) Ref {
		if IsTerminal(g) {
			return g
		}
		s := g & compBit
		gp := g ^ s
		if r, ok := memo[gp]; ok {
			return r ^ s
		}
		n := m.nodes[gp]
		low := walk(n.low)
		high := walk(n.high)
		r := dst.mk(n.lvl&^markBit, low, high)
		memo[gp] = r
		return r ^ s
	}
	return walk(f)
}
