package bdd

// Variable permutation. The symbolic checker represents the transition
// relation over two copies of the state variables (v, v'); after an image
// computation the result is expressed over v' and must be renamed back to
// v (and vice versa). Permutations are registered once with
// NewPermutation so repeated applications share a per-permutation cache.
//
// Renaming commutes with negation, so all recursions here split the
// complement bit off the argument, memoize on the plain ref and re-apply
// the bit to the result — f and ¬f share one cache entry and one
// traversal.

// Permutation is a registered variable renaming.
type Permutation struct {
	m     *Manager
	id    int
	varTo []int // varTo[v] = image variable of v
	cache map[Ref]Ref
}

// NewPermutation registers the renaming varTo, which must be a bijection
// on the full variable set (varTo[v] is the variable that replaces v).
func (m *Manager) NewPermutation(varTo []int) *Permutation {
	if len(varTo) != m.NumVars() {
		panic("bdd: permutation length mismatch")
	}
	seen := make([]bool, len(varTo))
	for _, w := range varTo {
		if w < 0 || w >= len(varTo) || seen[w] {
			panic("bdd: permutation is not a bijection")
		}
		seen[w] = true
	}
	p := &Permutation{m: m, id: len(m.perms), varTo: append([]int(nil), varTo...)}
	m.perms = append(m.perms, p)
	return p
}

// Apply renames the variables of f according to the permutation.
func (p *Permutation) Apply(f Ref) Ref {
	p.m.checkRef(f)
	if p.cache == nil {
		p.cache = make(map[Ref]Ref)
	}
	return p.apply(f)
}

func (p *Permutation) apply(f Ref) Ref {
	if IsTerminal(f) {
		return f
	}
	s := f & compBit
	fp := f ^ s
	if r, ok := p.cache[fp]; ok {
		return r ^ s
	}
	m := p.m
	n := m.nodes[fp]
	low := p.apply(n.low)
	high := p.apply(n.high)
	v := m.level2var[n.lvl&^markBit]
	w := p.varTo[v]
	res := m.composeVar(w, low, high)
	p.cache[fp] = res
	return res ^ s
}

// composeVar builds ITE(Var(w), high, low) efficiently. When the target
// variable's level is above both cofactor levels this is a single mk;
// otherwise it falls back to full ITE (needed when a permutation does not
// respect the level order).
func (m *Manager) composeVar(w int, low, high Ref) Ref {
	lvl := uint32(m.var2level[w])
	if lvl < m.level(low) && lvl < m.level(high) {
		return m.mk(lvl, low, high)
	}
	return m.ite3(m.Var(w), high, low)
}
