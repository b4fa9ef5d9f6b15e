package bdd

import (
	"math/rand"
	"testing"
)

// randomFunc builds a random function over the manager's variables.
func randomFunc(r *rand.Rand, m *Manager) Ref {
	f := False
	for t := 0; t < 2+r.Intn(3); t++ {
		cube := True
		for v := 0; v < m.NumVars(); v++ {
			switch r.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v))
			case 1:
				cube = m.And(cube, m.NVar(v))
			}
		}
		f = m.Or(f, cube)
	}
	return f
}

// TestCopyToRoundTrip: copying to an order-aligned scratch manager and
// back must be the identity, and the scratch copy must agree with the
// original on every assignment.
func TestCopyToRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := New(6)
		f := randomFunc(r, m)
		scratch := NewWithOrder(m.Order())
		g := m.CopyTo(scratch, f)
		if scratch.Size(g) != m.Size(f) {
			t.Fatalf("trial %d: copy size %d != source size %d", trial, scratch.Size(g), m.Size(f))
		}
		back := scratch.CopyTo(m, g)
		if back != f {
			t.Fatalf("trial %d: round trip not identity", trial)
		}
		env := make([]bool, 6)
		for probe := 0; probe < 64; probe++ {
			for i := range env {
				env[i] = probe>>i&1 == 1
			}
			if m.Eval(f, env) != scratch.Eval(g, env) {
				t.Fatalf("trial %d: copy disagrees on %v", trial, env)
			}
		}
	}
}

// TestCopyToNonIdentityOrder: the transfer must work under any shared
// order, not just the identity — scratch managers inherit whatever
// order dynamic reordering left the main manager in.
func TestCopyToNonIdentityOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := New(6)
	f := m.Protect(randomFunc(r, m))
	m.Reorder([]int{3, 1, 5, 0, 4, 2})
	scratch := NewWithOrder(m.Order())
	g := m.CopyTo(scratch, f)
	env := make([]bool, 6)
	for probe := 0; probe < 64; probe++ {
		for i := range env {
			env[i] = probe>>i&1 == 1
		}
		if m.Eval(f, env) != scratch.Eval(g, env) {
			t.Fatalf("copy disagrees on %v under permuted order", env)
		}
	}
}

// TestCopyToOrderMismatchPanics: a destination with a different order
// must be rejected, not silently miscopied.
func TestCopyToOrderMismatchPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(3))
	dst := NewWithOrder([]int{3, 2, 1, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("CopyTo with mismatched order did not panic")
		}
	}()
	m.CopyTo(dst, f)
}

// TestCopyToOperationsInScratch: results computed in the scratch arena
// transfer back to the values the main manager would have computed.
func TestCopyToOperationsInScratch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		m := New(8)
		f := randomFunc(r, m)
		g := randomFunc(r, m)
		cube := m.Cube([]int{0, 2, 4})
		want := m.AndExists(f, g, cube)

		sc := NewWithOrder(m.Order())
		got := sc.CopyTo(m, sc.AndExists(m.CopyTo(sc, f), m.CopyTo(sc, g), m.CopyTo(sc, cube)))
		if got != want {
			t.Fatalf("trial %d: scratch AndExists differs from main-manager result", trial)
		}
	}
}
