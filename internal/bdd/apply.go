package bdd

// This file implements the boolean connectives. Everything reduces to
// the if-then-else operator ITE(f,g,h) = (f ∧ g) ∨ (¬f ∧ h), memoized in
// a direct-mapped computed cache. The complexity of each binary
// operation is O(|f|·|g|) as stated in Section 2 of the paper.
//
// With complement edges, negation is free, which makes every triple
// expressible in many equivalent ways — f∧g is ITE(f,g,0) but also
// ITE(g,f,0), ¬ITE(f,¬g,1), ¬ITE(¬g,¬f,1), … Before touching the cache,
// ite3 rewrites the triple to the standard form of Brace, Rudell and
// Bryant (DAC 1990): terminal rules, ¬f collapses, the standard-triple
// argument swaps, and finally the two complement rules (first argument
// never complemented; second argument never complemented, complementing
// the result instead). All equivalent formulations then share one cache
// line, which is where the higher hit rates come from.
//
// Under DisableComplementEdges only the rewrites that exist in the
// structural representation apply (no rule may manufacture a
// complemented ref), and Not(f) builds ¬f node by node through the same
// recursion.

// Ite computes if-then-else: (f ∧ g) ∨ (¬f ∧ h).
func (m *Manager) Ite(f, g, h Ref) Ref {
	m.checkRef(f)
	m.checkRef(g)
	m.checkRef(h)
	return m.ite3(f, g, h)
}

// before orders two refs for the standard-triple swaps: primarily by
// level, tie-broken by plain node index. Complement bits are ignored,
// which is what makes the swapped form canonical — ITE(f,1,h) and
// ITE(h,1,f) meet at the same triple whichever way they arrive.
func (m *Manager) before(a, b Ref) bool {
	la, lb := m.level(a), m.level(b)
	if la != lb {
		return la < lb
	}
	return a&^compBit < b&^compBit
}

func (m *Manager) ite3(f, g, h Ref) Ref {
	m.Stats.ITECalls++
	// Terminal and trivial cases (valid in both representations).
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}

	neg := false
	if !m.noComp {
		// ¬f is one comparison away, so the f-collapses come in pairs.
		if g == f {
			g = True
		} else if g == f^compBit {
			g = False
		}
		if h == f {
			h = False
		} else if h == f^compBit {
			h = True
		}
		switch {
		case g == h:
			return g
		case g == True && h == False:
			return f
		case g == False && h == True:
			return f ^ compBit
		}

		// Standard triples: canonicalize the argument order of the
		// commutative forms.
		switch {
		case g == True: // f ∨ h = h ∨ f
			if m.before(h, f) {
				f, h = h, f
			}
		case h == False: // f ∧ g = g ∧ f
			if m.before(g, f) {
				f, g = g, f
			}
		case g == False: // ¬f ∧ h = ¬h' ∧ f' for (f',h') = (¬h,¬f)
			if m.before(h, f) {
				f, h = h^compBit, f^compBit
			}
		case h == True: // ¬f ∨ g = ITE(¬g, ¬f, 1)
			if m.before(g, f) {
				f, g = g^compBit, f^compBit
			}
		case g == h^compBit: // f XNOR g = ITE(g, f, ¬f)
			if m.before(g, f) {
				f, g = g, f
				h = g ^ compBit
			}
		}

		// Complement canonicalization: a complemented first argument
		// swaps the branches; a complemented second argument complements
		// the whole triple, remembering to flip the result.
		if f&compBit != 0 {
			f ^= compBit
			g, h = h, g
		}
		if g&compBit != 0 {
			g ^= compBit
			h ^= compBit
			neg = true
		}
		// The rewrites above can re-expose a trivial triple.
		switch {
		case g == h:
			if neg {
				return g ^ compBit
			}
			return g
		case g == True && h == False:
			if neg {
				return f ^ compBit
			}
			return f
		}
	} else {
		// Structural-mode normalization (no rule may introduce ¬).
		if g == f {
			g = True
		}
		if h == f {
			h = False
		}
		if g == True && h == False {
			return f
		}
	}

	m.Stats.CacheLookups++
	slot := cacheIndex(uint32(f), uint32(g), uint32(h), 0x17e, uint32(len(m.ite)))
	if e := &m.ite[slot]; e.valid && e.f == f && e.g == g && e.h == h {
		m.Stats.CacheHits++
		if neg {
			return e.res ^ compBit
		}
		return e.res
	}

	lf, lg, lh := m.level(f), m.level(g), m.level(h)
	top := lf
	if lg < top {
		top = lg
	}
	if lh < top {
		top = lh
	}

	f0, f1 := m.cofactors(f, lf, top)
	g0, g1 := m.cofactors(g, lg, top)
	h0, h1 := m.cofactors(h, lh, top)

	low := m.ite3(f0, g0, h0)
	high := m.ite3(f1, g1, h1)
	res := m.mk(top, low, high)

	m.ite[slot] = iteEntry{f: f, g: g, h: h, res: res, valid: true}
	if neg {
		return res ^ compBit
	}
	return res
}

// cofactors returns the (low, high) cofactors of f with respect to the
// variable at level top, given that f's own level is lf. The complement
// bit of f is pushed through to the cofactors.
func (m *Manager) cofactors(f Ref, lf, top uint32) (Ref, Ref) {
	if lf != top {
		return f, f
	}
	n := &m.nodes[f&^compBit]
	s := f & compBit
	return n.low ^ s, n.high ^ s
}

// Not returns the complement ¬f. With complement edges this is a single
// bit flip — no node allocation, no cache traffic. Under
// DisableComplementEdges it materializes the complement through ITE.
func (m *Manager) Not(f Ref) Ref {
	if !m.noComp {
		return f ^ compBit
	}
	return m.Ite(f, False, True)
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Eq returns f ↔ g (exclusive-nor).
func (m *Manager) Eq(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Imp returns f → g.
func (m *Manager) Imp(f, g Ref) Ref { return m.Ite(f, g, True) }

// Diff returns f ∧ ¬g.
func (m *Manager) Diff(f, g Ref) Ref { return m.Ite(g, False, f) }

// Nand returns ¬(f ∧ g).
func (m *Manager) Nand(f, g Ref) Ref { return m.Not(m.And(f, g)) }

// Nor returns ¬(f ∨ g).
func (m *Manager) Nor(f, g Ref) Ref { return m.Not(m.Or(f, g)) }

// AndN returns the conjunction of all arguments (True when empty).
func (m *Manager) AndN(fs ...Ref) Ref {
	res := True
	for _, f := range fs {
		res = m.And(res, f)
		if res == False {
			return False
		}
	}
	return res
}

// OrN returns the disjunction of all arguments (False when empty).
func (m *Manager) OrN(fs ...Ref) Ref {
	res := False
	for _, f := range fs {
		res = m.Or(res, f)
		if res == True {
			return True
		}
	}
	return res
}

// Implies reports whether f → g is a tautology, i.e. the state set f is
// contained in g. Thanks to canonicity this is a single ITE plus a
// comparison against True.
func (m *Manager) Implies(f, g Ref) bool { return m.Imp(f, g) == True }

// Disjoint reports whether f ∧ g is unsatisfiable.
func (m *Manager) Disjoint(f, g Ref) bool { return m.And(f, g) == False }
