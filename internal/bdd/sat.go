package bdd

// Satisfying assignments, model counting, evaluation and size metrics.
// The descents here carry the complement parity explicitly: following an
// edge xors the parent's complement bit onto the child, and a walk that
// lands on the terminal reads its accumulated sign (True = complemented
// terminal). SatCount exploits parity instead of threading it: the
// density of ¬g is 1 minus the density of g, so the memo table holds
// plain refs only and f, ¬f share every entry.

// Eval evaluates f under the assignment env (indexed by variable).
// Variables beyond len(env) are treated as false.
func (m *Manager) Eval(f Ref, env []bool) bool {
	for !IsTerminal(f) {
		n := &m.nodes[f&^compBit]
		s := f & compBit
		v := m.level2var[n.lvl&^markBit]
		if v < len(env) && env[v] {
			f = n.high ^ s
		} else {
			f = n.low ^ s
		}
	}
	return f == True
}

// SatCount returns the number of satisfying assignments of f over nvars
// variables as a float64. Counts up to 2^53 are exact. It computes the
// density of f (the fraction of all assignments that satisfy it, which
// is order-independent) and scales by 2^nvars.
func (m *Manager) SatCount(f Ref, nvars int) float64 {
	dens := make(map[Ref]float64)
	var density func(Ref) float64
	density = func(g Ref) float64 {
		switch g {
		case False:
			return 0
		case True:
			return 1
		}
		if g&compBit != 0 {
			// density(¬g) = 1 - density(g): memoize on the plain ref.
			return 1 - density(g^compBit)
		}
		if d, ok := dens[g]; ok {
			return d
		}
		n := &m.nodes[g]
		d := 0.5*density(n.low) + 0.5*density(n.high)
		dens[g] = d
		return d
	}
	return density(f) * pow2(nvars)
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// AnySat returns one satisfying assignment of f as a slice indexed by
// variable: 1 for true, 0 for false, -1 for don't-care. Returns nil when
// f is unsatisfiable. The assignment chosen is deterministic: at each
// node the low branch is preferred when satisfiable.
func (m *Manager) AnySat(f Ref) []int8 {
	if f == False {
		return nil
	}
	out := make([]int8, m.NumVars())
	for i := range out {
		out[i] = -1
	}
	for !IsTerminal(f) {
		n := &m.nodes[f&^compBit]
		s := f & compBit
		v := m.level2var[n.lvl&^markBit]
		if n.low^s != False {
			out[v] = 0
			f = n.low ^ s
		} else {
			out[v] = 1
			f = n.high ^ s
		}
	}
	return out
}

// PickOne returns the lexicographically least full assignment to vars
// that satisfies f (don't-cares resolved to false), or nil if f is
// unsatisfiable. It is the "choose an arbitrary element of the set" step
// of the witness construction, made deterministic for reproducibility.
// vars must be distinct variables of the manager.
func (m *Manager) PickOne(f Ref, vars []int) []bool {
	if f == False {
		return nil
	}
	out := make([]bool, len(vars))
	pos := m.varPos
	for i, v := range vars {
		pos[v] = int32(i) + 1
	}
	// AnySat's descent: the low branch whenever it is satisfiable.
	for !IsTerminal(f) {
		n := &m.nodes[f&^compBit]
		s := f & compBit
		if n.low^s != False {
			f = n.low ^ s
			continue
		}
		if p := pos[m.level2var[n.lvl&^markBit]]; p > 0 {
			out[p-1] = true
		}
		f = n.high ^ s
	}
	for _, v := range vars {
		pos[v] = 0
	}
	return out
}

// MintermCube converts a full assignment over vars, distinct variables
// of the manager, into the BDD cube of that single state. It conjoins
// the literals bottom-up, in decreasing level order, so each mk is
// constant time.
func (m *Manager) MintermCube(vars []int, vals []bool) Ref {
	if len(vars) != len(vals) {
		panic("bdd: MintermCube length mismatch")
	}
	pos := m.varPos
	for i, v := range vars {
		pos[v] = int32(i) + 1
	}
	res := True
	for l := len(m.level2var) - 1; l >= 0; l-- {
		v := m.level2var[l]
		p := pos[v]
		if p == 0 {
			continue
		}
		pos[v] = 0
		if vals[p-1] {
			res = m.mk(uint32(l), False, res)
		} else {
			res = m.mk(uint32(l), res, False)
		}
	}
	return res
}

// AllSat invokes fn for every satisfying assignment of f over exactly
// the given vars (don't-cares are expanded). fn may return false to stop
// the enumeration early. The assignment slice is reused between calls.
func (m *Manager) AllSat(f Ref, vars []int, fn func([]bool) bool) {
	if f == False {
		return
	}
	lvlPos := make(map[uint32]int, len(vars)) // level -> position in vars
	for i, v := range vars {
		lvlPos[uint32(m.var2level[v])] = i
	}
	// order positions by level
	order := make([]int, 0, len(vars))
	for l := 0; l < len(m.level2var); l++ {
		if p, ok := lvlPos[uint32(l)]; ok {
			order = append(order, p)
		}
	}
	asg := make([]bool, len(vars))
	stop := false
	var rec func(g Ref, oi int)
	rec = func(g Ref, oi int) {
		if stop || g == False {
			return
		}
		if oi == len(order) {
			if g != True {
				// f depends on a variable outside vars; treat rest as exists
				if m.existsAll(g) {
					if !fn(asg) {
						stop = true
					}
				}
				return
			}
			if !fn(asg) {
				stop = true
			}
			return
		}
		pos := order[oi]
		lvl := uint32(m.var2level[vars[pos]])
		gl := m.level(g)
		if IsTerminal(g) || gl > lvl {
			// variable is a don't-care here: branch both ways
			asg[pos] = false
			rec(g, oi+1)
			asg[pos] = true
			rec(g, oi+1)
			return
		}
		g0, g1 := m.low(g), m.high(g)
		if gl < lvl {
			// g tests a variable not in vars before lvl: existentially
			// branch through it without recording.
			rec(g0, oi)
			if !stop {
				rec(g1, oi)
			}
			return
		}
		asg[pos] = false
		rec(g0, oi+1)
		asg[pos] = true
		rec(g1, oi+1)
	}
	rec(f, 0)
}

// existsAll reports whether g is satisfiable (it always is unless g is
// the False terminal, since BDDs are reduced).
func (m *Manager) existsAll(g Ref) bool { return g != False }

// Size returns the number of distinct nodes reachable from f, including
// the terminal. f and ¬f live on the same nodes, so the walk strips
// complement bits and Size(f) == Size(Not(f)) by construction.
func (m *Manager) Size(f Ref) int {
	return len(m.reach(f)) + 1
}

// reach returns the nonterminal nodes reachable from f, each once. The
// walk marks a node's level with markBit when it first sees the node,
// uses the list it returns as its queue, and clears every mark before
// it returns. The list is the manager's scratch, valid until the next
// walk.
func (m *Manager) reach(f Ref) []uint32 {
	list := m.walk[:0]
	visit := func(g Ref) {
		g &^= compBit
		if n := &m.nodes[g]; g != 0 && n.lvl&markBit == 0 {
			n.lvl |= markBit
			list = append(list, uint32(g))
		}
	}
	visit(f)
	for i := 0; i < len(list); i++ {
		n := &m.nodes[list[i]]
		visit(n.low)
		visit(n.high)
	}
	for _, i := range list {
		m.nodes[i].lvl &^= markBit
	}
	m.walk = list
	return list
}
