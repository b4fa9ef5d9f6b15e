package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the core algebraic laws. Each
// property interprets three random uint16 truth tables over 4 variables
// as BDDs and checks the law by canonicity (equal Refs ⟺ equal
// functions).

// fromTruthTable builds the BDD of the function whose value on
// assignment a (bit v of a = variable v) is bit a of bits.
func fromTruthTable(m *Manager, n int, bits uint64) Ref {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	var build func(prefix, v int) Ref
	build = func(prefix, v int) Ref {
		if v == n {
			if bits>>prefix&1 == 1 {
				return True
			}
			return False
		}
		low := build(prefix, v+1)
		high := build(prefix|1<<v, v+1)
		return m.Ite(m.Var(v), high, low)
	}
	return build(0, 0)
}

const propVars = 4

func prop3(t *testing.T, law func(m *Manager, f, g, h Ref) bool) {
	t.Helper()
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(99)),
	}
	err := quick.Check(func(a, b, c uint16) bool {
		m := New(propVars)
		f := fromTruthTable(m, propVars, uint64(a))
		g := fromTruthTable(m, propVars, uint64(b))
		h := fromTruthTable(m, propVars, uint64(c))
		return law(m, f, g, h)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropDoubleNegation(t *testing.T) {
	prop3(t, func(m *Manager, f, _, _ Ref) bool {
		return m.Not(m.Not(f)) == f
	})
}

func TestPropDeMorgan(t *testing.T) {
	prop3(t, func(m *Manager, f, g, _ Ref) bool {
		return m.Not(m.And(f, g)) == m.Or(m.Not(f), m.Not(g))
	})
}

func TestPropDistributivity(t *testing.T) {
	prop3(t, func(m *Manager, f, g, h Ref) bool {
		return m.And(f, m.Or(g, h)) == m.Or(m.And(f, g), m.And(f, h))
	})
}

func TestPropAbsorption(t *testing.T) {
	prop3(t, func(m *Manager, f, g, _ Ref) bool {
		return m.Or(f, m.And(f, g)) == f && m.And(f, m.Or(f, g)) == f
	})
}

func TestPropIteShannon(t *testing.T) {
	prop3(t, func(m *Manager, f, g, h Ref) bool {
		return m.Ite(f, g, h) == m.Or(m.And(f, g), m.And(m.Not(f), h))
	})
}

func TestPropXorAlgebra(t *testing.T) {
	prop3(t, func(m *Manager, f, g, _ Ref) bool {
		return m.Xor(f, g) == m.Xor(g, f) &&
			m.Xor(f, f) == False &&
			m.Xor(f, False) == f &&
			m.Xor(f, True) == m.Not(f)
	})
}

func TestPropQuantifierDuality(t *testing.T) {
	prop3(t, func(m *Manager, f, _, _ Ref) bool {
		cube := m.Cube([]int{0, 2})
		return m.Not(m.Exists(m.Not(f), cube)) == m.ForAll(f, cube)
	})
}

func TestPropExistsMonotone(t *testing.T) {
	prop3(t, func(m *Manager, f, g, _ Ref) bool {
		cube := m.Cube([]int{1, 3})
		fg := m.Or(f, g)
		return m.Or(m.Exists(f, cube), m.Exists(g, cube)) == m.Exists(fg, cube)
	})
}

func TestPropShannonExpansion(t *testing.T) {
	prop3(t, func(m *Manager, f, _, _ Ref) bool {
		for v := 0; v < propVars; v++ {
			lo := m.Restrict(f, v, false)
			hi := m.Restrict(f, v, true)
			if m.Ite(m.Var(v), hi, lo) != f {
				return false
			}
		}
		return true
	})
}

func TestPropSatCountComplement(t *testing.T) {
	prop3(t, func(m *Manager, f, _, _ Ref) bool {
		total := pow2(propVars)
		return m.SatCount(f, propVars)+m.SatCount(m.Not(f), propVars) == total
	})
}

func TestPropReorderCanonicityIsomorphism(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(123))}
	err := quick.Check(func(a uint16, seed int64) bool {
		m := New(propVars)
		f := fromTruthTable(m, propVars, uint64(a))
		count := m.SatCount(f, propVars)
		r := rand.New(rand.NewSource(seed))
		order := r.Perm(propVars)
		m.Protect(f)
		m.Reorder(order)
		// model count is order-independent
		return m.SatCount(f, propVars) == count
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropGCPreservesFunctions(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(321))}
	err := quick.Check(func(a, b uint16) bool {
		m := New(propVars)
		f := m.Protect(fromTruthTable(m, propVars, uint64(a)))
		fromTruthTable(m, propVars, uint64(b)) // garbage
		m.GC()
		// rebuilding a yields the same ref (canonicity survived)
		return fromTruthTable(m, propVars, uint64(a)) == f
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
