package bdd

// Quantification and restriction. The model checker's image computation
//
//	EX f  =  ∃v' [ f(v') ∧ R(v,v') ]
//
// is provided as the fused AndExists ("relational product"), which avoids
// building the full conjunction before quantifying.
//
// All traversals here go through the sign-aware cofactor helpers: a
// complemented argument ref pushes its complement bit onto the cofactors
// rather than being materialized, and the computed caches key on the
// signed refs, so ∃v.f and ∃v.¬f occupy distinct cache lines (they are
// distinct functions — quantification does not commute with negation).

// Operation tags for the binary computed cache.
const (
	opExists uint32 = 1 + iota
	opForAll
	opRestrict // f restricted by a cube of literals (g = literal cube)
	opConstrain
	opPermuteBase // opPermuteBase+k is the k-th registered permutation
)

func (m *Manager) binCacheGet(op uint32, f, g Ref) (Ref, bool) {
	m.Stats.CacheLookups++
	slot := cacheIndex(op, uint32(f), uint32(g), 0x9d, uint32(len(m.binop)))
	e := &m.binop[slot]
	if e.op == op && e.f == f && e.g == g {
		m.Stats.CacheHits++
		return e.res, true
	}
	return False, false
}

func (m *Manager) binCachePut(op uint32, f, g, res Ref) {
	slot := cacheIndex(op, uint32(f), uint32(g), 0x9d, uint32(len(m.binop)))
	m.binop[slot] = binEntry{op: op, f: f, g: g, res: res}
}

// Cube returns the conjunction of the positive literals of vars, the
// usual encoding of a set of variables to quantify. Positive cubes have
// plain (non-complemented) else edges throughout, so the returned ref is
// never complemented.
func (m *Manager) Cube(vars []int) Ref {
	// Build bottom-up in level order for linear size.
	levels := make([]int, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.var2level[v])
	}
	// insertion sort descending (cubes are small)
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] > levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	res := True
	for _, l := range levels {
		res = m.mk(uint32(l), False, res)
	}
	return res
}

// CubeVars decodes a positive cube back into its variable set.
func (m *Manager) CubeVars(cube Ref) []int {
	var vars []int
	for !IsTerminal(cube) {
		vars = append(vars, m.level2var[m.level(cube)])
		if m.low(cube) == False {
			cube = m.high(cube)
		} else {
			cube = m.low(cube)
		}
	}
	return vars
}

// Exists computes ∃ vars . f where vars is a positive cube.
func (m *Manager) Exists(f, cube Ref) Ref {
	m.checkRef(f)
	m.checkRef(cube)
	return m.exists(f, cube)
}

func (m *Manager) exists(f, cube Ref) Ref {
	if IsTerminal(f) || cube == True {
		return f
	}
	lf := m.level(f)
	lc := m.level(cube)
	for lc < lf {
		cube = m.high(cube)
		if cube == True {
			return f
		}
		lc = m.level(cube)
	}
	if res, ok := m.binCacheGet(opExists, f, cube); ok {
		return res
	}
	f0, f1 := m.low(f), m.high(f)
	var res Ref
	if lf == lc {
		// Quantify this variable: f|v=0 ∨ f|v=1.
		low := m.exists(f0, m.high(cube))
		if low == True {
			res = True
		} else {
			high := m.exists(f1, m.high(cube))
			res = m.ite3(low, True, high)
		}
	} else {
		low := m.exists(f0, cube)
		high := m.exists(f1, cube)
		res = m.mk(lf, low, high)
	}
	m.binCachePut(opExists, f, cube, res)
	return res
}

// ForAll computes ∀ vars . f where vars is a positive cube.
func (m *Manager) ForAll(f, cube Ref) Ref {
	m.checkRef(f)
	m.checkRef(cube)
	return m.forall(f, cube)
}

func (m *Manager) forall(f, cube Ref) Ref {
	if IsTerminal(f) || cube == True {
		return f
	}
	lf := m.level(f)
	lc := m.level(cube)
	for lc < lf {
		cube = m.high(cube)
		if cube == True {
			return f
		}
		lc = m.level(cube)
	}
	if res, ok := m.binCacheGet(opForAll, f, cube); ok {
		return res
	}
	f0, f1 := m.low(f), m.high(f)
	var res Ref
	if lf == lc {
		low := m.forall(f0, m.high(cube))
		if low == False {
			res = False
		} else {
			high := m.forall(f1, m.high(cube))
			res = m.ite3(low, high, False)
		}
	} else {
		low := m.forall(f0, cube)
		high := m.forall(f1, cube)
		res = m.mk(lf, low, high)
	}
	m.binCachePut(opForAll, f, cube, res)
	return res
}

// aexEntry caches AndExists triples.
type aexEntry struct {
	f, g, cube Ref
	res        Ref
	valid      bool
}

// AndExists computes ∃ cube . (f ∧ g) without materializing f ∧ g — the
// relational-product operation at the heart of symbolic image
// computation.
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	m.checkRef(f)
	m.checkRef(g)
	m.checkRef(cube)
	m.Stats.AndExistsCalls++
	if m.aex == nil {
		m.aex = make([]aexEntry, m.cacheSize)
	}
	return m.andExists(f, g, cube)
}

func (m *Manager) andExists(f, g, cube Ref) Ref {
	if f == False || g == False {
		return False
	}
	if f == True && g == True {
		return True
	}
	if f == True {
		return m.exists(g, cube)
	}
	if g == True {
		return m.exists(f, cube)
	}
	if f == g {
		return m.exists(f, cube)
	}
	if !m.noComp && f == g^compBit {
		return False // f ∧ ¬f
	}
	if cube == True {
		return m.ite3(f, g, False)
	}
	if f > g {
		f, g = g, f // And is commutative; canonicalize for the cache
	}

	lf, lg := m.level(f), m.level(g)
	top := lf
	if lg < top {
		top = lg
	}
	lc := m.level(cube)
	for lc < top {
		cube = m.high(cube)
		if cube == True {
			return m.ite3(f, g, False)
		}
		lc = m.level(cube)
	}

	slot := cacheIndex(uint32(f), uint32(g), uint32(cube), 0xae, uint32(len(m.aex)))
	m.Stats.AndExistsLookups++
	if e := &m.aex[slot]; e.valid && e.f == f && e.g == g && e.cube == cube {
		m.Stats.CacheHits++
		m.Stats.AndExistsHits++
		return e.res
	}

	f0, f1 := m.cofactors(f, lf, top)
	g0, g1 := m.cofactors(g, lg, top)

	var res Ref
	if top == lc {
		rest := m.high(cube)
		low := m.andExists(f0, g0, rest)
		if low == True {
			res = True
		} else {
			high := m.andExists(f1, g1, rest)
			res = m.ite3(low, True, high)
		}
	} else {
		low := m.andExists(f0, g0, cube)
		high := m.andExists(f1, g1, cube)
		res = m.mk(top, low, high)
	}
	m.aex[slot] = aexEntry{f: f, g: g, cube: cube, res: res, valid: true}
	return res
}

// Restrict computes the cofactor f|v=val, the restriction operation of
// Section 2 (linear in the size of f).
func (m *Manager) Restrict(f Ref, v int, val bool) Ref {
	lit := m.Lit(v, val)
	return m.restrictCube(f, lit)
}

// RestrictCube restricts f by a cube of literals (a conjunction where
// each mentioned variable appears exactly once, positively or
// negatively). Negative literals arrive as complemented refs (NVar is
// ¬Var under else-edge canonicalization), so the cube walk reads
// effective — sign-adjusted — children throughout.
func (m *Manager) RestrictCube(f, litCube Ref) Ref {
	m.checkRef(f)
	m.checkRef(litCube)
	return m.restrictCube(f, litCube)
}

func (m *Manager) restrictCube(f, c Ref) Ref {
	if IsTerminal(f) || c == True {
		return f
	}
	if c == False {
		panic("bdd: RestrictCube with contradictory cube")
	}
	lf, lc := m.level(f), m.level(c)
	for lc < lf {
		if m.low(c) == False {
			c = m.high(c)
		} else {
			c = m.low(c)
		}
		if c == True {
			return f
		}
		lc = m.level(c)
	}
	if res, ok := m.binCacheGet(opRestrict, f, c); ok {
		return res
	}
	var res Ref
	if lf == lc {
		if m.low(c) == False { // positive literal: take high branch
			res = m.restrictCube(m.high(f), m.high(c))
		} else { // negative literal
			res = m.restrictCube(m.low(f), m.low(c))
		}
	} else {
		low := m.restrictCube(m.low(f), c)
		high := m.restrictCube(m.high(f), c)
		res = m.mk(lf, low, high)
	}
	m.binCachePut(opRestrict, f, c, res)
	return res
}

// Support returns the variables f depends on, in increasing level order.
// f and ¬f share nodes, so the walk is over plain (sign-stripped) refs.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	levels := make(map[uint32]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		g &^= compBit
		if g == 0 || seen[g] {
			return
		}
		seen[g] = true
		n := &m.nodes[g]
		levels[n.lvl&^markBit] = true
		walk(n.low)
		walk(n.high)
	}
	walk(f)
	var out []int
	for l := 0; l < len(m.level2var); l++ {
		if levels[uint32(l)] {
			out = append(out, m.level2var[l])
		}
	}
	return out
}
