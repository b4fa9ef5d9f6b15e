package bdd

import (
	"math"
	"testing"
)

// TestNotNoAlloc pins the headline O(1) property of complement edges:
// negation flips the sign bit and must never touch the arena.
func TestNotNoAlloc(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(2)))
	before := m.numAlloc
	g := m.Not(f)
	if m.numAlloc != before {
		t.Fatalf("Not allocated %d node(s)", m.numAlloc-before)
	}
	if m.Not(g) != f {
		t.Fatal("double negation is not the identity")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("terminal negation broken")
	}
	if m.numAlloc != before {
		t.Fatalf("terminal Not allocated %d node(s)", m.numAlloc-before)
	}
}

// FuzzComplement drives a random operation sequence in lockstep on a
// complement-edge manager and a DisableComplementEdges reference
// manager, then demands the two representations agree on every
// function: identical Eval on every assignment, identical SatCount,
// and clean invariants (including the else-edge canonical form) on
// both arenas. The byte stream is a little stack machine: the low
// nibble selects the operation, the high nibble its argument. The
// complement-edge manager's computed table is pinned at 16 slots, so
// ITE, AndExists, Exists, ForAll and RestrictCube results keep evicting
// one another from shared slots, while the reference keeps its default
// table.
func FuzzComplement(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x06, 0x05, 0x27, 0x3a})
	f.Add([]byte{0x03, 0x04, 0x09, 0x05, 0x05})
	f.Add([]byte{0x00, 0x12, 0x08, 0x4b, 0x0c, 0x1d})
	f.Add([]byte{})
	// ForAll, then Exists over the same variable of a function whose
	// entries share slots: a key compare without the op tag returns one
	// quantifier's result for the other.
	f.Add([]byte("A778Z0002\x8f\x8a"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 5
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := New(n)
		pinCache(m, 16)
		ref := New(n, DisableComplementEdges())

		// Parallel stacks of protected roots. Entries are pushed
		// protected and never unprotected, so GC may run at any point.
		var ms, rs []Ref
		push := func(a, b Ref) {
			ms = append(ms, m.Protect(a))
			rs = append(rs, ref.Protect(b))
		}
		// pick returns the stack slot an argument nibble addresses, or
		// -1 when the stack is empty.
		pick := func(arg int) int {
			if len(ms) == 0 {
				return -1
			}
			return arg % len(ms)
		}

		for _, b := range ops {
			op, arg := int(b&0xF), int(b>>4)
			switch op {
			case 0, 1:
				v := arg % n
				push(m.Var(v), ref.Var(v))
			case 2:
				v := arg % n
				push(m.NVar(v), ref.NVar(v))
			case 3:
				push(False, False)
			case 4:
				push(True, True)
			case 5: // Not
				if i := pick(arg); i >= 0 {
					push(m.Not(ms[i]), ref.Not(rs[i]))
				}
			case 6: // And
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.And(ms[i], ms[j]), ref.And(rs[i], rs[j]))
				}
			case 7: // Or
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.Or(ms[i], ms[j]), ref.Or(rs[i], rs[j]))
				}
			case 8: // Xor
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.Xor(ms[i], ms[j]), ref.Xor(rs[i], rs[j]))
				}
			case 9: // Ite
				if i, j, k := pick(arg), pick(arg+1), pick(arg+2); i >= 0 {
					push(m.Ite(ms[i], ms[j], ms[k]), ref.Ite(rs[i], rs[j], rs[k]))
				}
			case 10: // Exists over one variable
				if i := pick(arg); i >= 0 {
					v := arg % n
					push(m.Exists(ms[i], m.Cube([]int{v})), ref.Exists(rs[i], ref.Cube([]int{v})))
				}
			case 11: // AndExists over one variable
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					v := arg % n
					push(m.AndExists(ms[i], ms[j], m.Cube([]int{v})),
						ref.AndExists(rs[i], rs[j], ref.Cube([]int{v})))
				}
			case 12: // RestrictCube by one literal
				if i := pick(arg); i >= 0 {
					v, pos := arg%n, arg/n%2 == 0
					push(m.RestrictCube(ms[i], m.Lit(v, pos)), ref.RestrictCube(rs[i], ref.Lit(v, pos)))
				}
			case 13: // GC both arenas
				m.GC()
				ref.GC()
			case 14: // adjacent-level swap on both managers
				lvl := arg % (n - 1)
				m.beginSwapSession()
				m.swapLevels(lvl)
				m.endSwapSession()
				ref.beginSwapSession()
				ref.swapLevels(lvl)
				ref.endSwapSession()
			case 15: // ForAll over one variable
				if i := pick(arg); i >= 0 {
					v := arg % n
					push(m.ForAll(ms[i], m.Cube([]int{v})), ref.ForAll(rs[i], ref.Cube([]int{v})))
				}
			}
		}

		if err := CheckInvariants(m); err != nil {
			t.Fatalf("complement-edge manager: %v", err)
		}
		if err := CheckInvariants(ref); err != nil {
			t.Fatalf("reference manager: %v", err)
		}
		for idx := range ms {
			if c, rc := m.SatCount(ms[idx], n), ref.SatCount(rs[idx], n); math.Abs(c-rc) > 0.5 {
				t.Fatalf("stack[%d]: SatCount %v (complement) vs %v (reference)", idx, c, rc)
			}
			for a := 0; a < 1<<n; a++ {
				env := envFor(n, a)
				if m.Eval(ms[idx], env) != ref.Eval(rs[idx], env) {
					t.Fatalf("stack[%d]: representations diverge at assignment %b", idx, a)
				}
			}
		}
	})
}
