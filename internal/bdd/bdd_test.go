package bdd

import (
	"math/rand"
	"slices"
	"testing"
)

// tt is a truth-table reference implementation over n variables: a
// function is the set of satisfying assignments encoded as a bitmask
// over all 2^n assignments (assignment a has variable v true iff bit v
// of a is set).
type tt struct {
	n    int
	bits uint64
}

func ttVar(n, v int) tt {
	var b uint64
	for a := 0; a < 1<<n; a++ {
		if a>>v&1 == 1 {
			b |= 1 << a
		}
	}
	return tt{n, b}
}

func (t tt) mask() uint64    { return 1<<(1<<t.n) - 1 }
func (t tt) not() tt         { return tt{t.n, ^t.bits & t.mask()} }
func (t tt) and(u tt) tt     { return tt{t.n, t.bits & u.bits} }
func (t tt) or(u tt) tt      { return tt{t.n, t.bits | u.bits} }
func (t tt) xor(u tt) tt     { return tt{t.n, t.bits ^ u.bits} }
func (t tt) ite(g, h tt) tt  { return t.and(g).or(t.not().and(h)) }
func (t tt) eval(a int) bool { return t.bits>>a&1 == 1 }
func (t tt) restrict(v int, val bool) tt {
	var b uint64
	for a := 0; a < 1<<t.n; a++ {
		fixed := a &^ (1 << v)
		if val {
			fixed |= 1 << v
		}
		if t.eval(fixed) {
			b |= 1 << a
		}
	}
	return tt{t.n, b}
}
func (t tt) exists(v int) tt { return t.restrict(v, false).or(t.restrict(v, true)) }
func (t tt) forall(v int) tt { return t.restrict(v, false).and(t.restrict(v, true)) }
func (t tt) count() int {
	c := 0
	for a := 0; a < 1<<t.n; a++ {
		if t.eval(a) {
			c++
		}
	}
	return c
}

// randPair builds a random boolean expression simultaneously as a BDD and
// a truth table.
func randPair(r *rand.Rand, m *Manager, n, depth int) (Ref, tt) {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return False, tt{n, 0}
		case 1:
			return True, tt{n, tt{n, 0}.mask()}
		default:
			v := r.Intn(n)
			if r.Intn(2) == 0 {
				return m.Var(v), ttVar(n, v)
			}
			bv, tv := m.Var(v), ttVar(n, v)
			return m.Not(bv), tv.not()
		}
	}
	f1, t1 := randPair(r, m, n, depth-1)
	f2, t2 := randPair(r, m, n, depth-1)
	switch r.Intn(5) {
	case 0:
		return m.And(f1, f2), t1.and(t2)
	case 1:
		return m.Or(f1, f2), t1.or(t2)
	case 2:
		return m.Xor(f1, f2), t1.xor(t2)
	case 3:
		return m.Not(f1), t1.not()
	default:
		f3, t3 := randPair(r, m, n, depth-1)
		return m.Ite(f1, f2, f3), t1.ite(t2, t3)
	}
}

func assignEnv(n, a int) []bool {
	env := make([]bool, n)
	for v := 0; v < n; v++ {
		env[v] = a>>v&1 == 1
	}
	return env
}

func checkAgainstTT(t *testing.T, m *Manager, f Ref, ref tt, what string) {
	t.Helper()
	for a := 0; a < 1<<ref.n; a++ {
		if m.Eval(f, assignEnv(ref.n, a)) != ref.eval(a) {
			t.Fatalf("%s: mismatch at assignment %b", what, a)
		}
	}
}

func TestTerminals(t *testing.T) {
	m := New(3)
	if m.Eval(True, []bool{false, false, false}) != true {
		t.Fatal("True must evaluate to true")
	}
	if m.Eval(False, []bool{true, true, true}) != false {
		t.Fatal("False must evaluate to false")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("Not on terminals broken")
	}
	if m.NumNodes() != 1 {
		t.Fatalf("fresh manager has %d nodes, want 1 (single shared terminal)", m.NumNodes())
	}
	if True != m.Not(False) {
		t.Fatal("True must be the complement of False")
	}
}

func TestVarBasics(t *testing.T) {
	m := New(4)
	for v := 0; v < 4; v++ {
		f := m.Var(v)
		g := m.NVar(v)
		if m.Not(f) != g {
			t.Fatalf("Not(Var(%d)) != NVar(%d)", v, v)
		}
		if m.And(f, g) != False {
			t.Fatalf("v ∧ ¬v must be False")
		}
		if m.Or(f, g) != True {
			t.Fatalf("v ∨ ¬v must be True")
		}
		if m.Var(v) != f {
			t.Fatalf("Var not canonical")
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a∧b)∨c  ==  ¬(¬c∧¬(a∧b)) — De Morgan
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(c), m.Not(m.And(a, b))))
	if f1 != f2 {
		t.Fatal("canonicity violated: equal functions with different refs")
	}
	// distribution
	f3 := m.And(a, m.Or(b, c))
	f4 := m.Or(m.And(a, b), m.And(a, c))
	if f3 != f4 {
		t.Fatal("distribution law not canonical")
	}
}

func TestRandomOpsAgainstTruthTables(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 5
	for trial := 0; trial < 200; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		checkAgainstTT(t, m, f, ref, "random expr")
	}
}

func TestConnectivesAgainstTruthTables(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 4
	m := New(n)
	for trial := 0; trial < 100; trial++ {
		f, tf := randPair(r, m, n, 3)
		g, tg := randPair(r, m, n, 3)
		checkAgainstTT(t, m, m.Nand(f, g), tf.and(tg).not(), "nand")
		checkAgainstTT(t, m, m.Nor(f, g), tf.or(tg).not(), "nor")
		checkAgainstTT(t, m, m.Imp(f, g), tf.not().or(tg), "imp")
		checkAgainstTT(t, m, m.Eq(f, g), tf.xor(tg).not(), "eq")
		checkAgainstTT(t, m, m.Diff(f, g), tf.and(tg.not()), "diff")
	}
}

func TestRestrict(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 4
	m := New(n)
	for trial := 0; trial < 100; trial++ {
		f, ref := randPair(r, m, n, 3)
		for v := 0; v < n; v++ {
			checkAgainstTT(t, m, m.Restrict(f, v, true), ref.restrict(v, true), "restrict v=1")
			checkAgainstTT(t, m, m.Restrict(f, v, false), ref.restrict(v, false), "restrict v=0")
		}
	}
}

func TestRestrictCube(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(2)))
	// restrict x1=1, x2=0 => f = x0 xor 0 = x0
	cube := m.And(m.Var(1), m.NVar(2))
	got := m.RestrictCube(f, cube)
	if got != m.Var(0) {
		t.Fatalf("RestrictCube wrong: got %v", got)
	}
}

func TestQuantification(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n = 4
	m := New(n)
	for trial := 0; trial < 100; trial++ {
		f, ref := randPair(r, m, n, 3)
		for v := 0; v < n; v++ {
			cube := m.Cube([]int{v})
			checkAgainstTT(t, m, m.Exists(f, cube), ref.exists(v), "exists one")
			checkAgainstTT(t, m, m.ForAll(f, cube), ref.forall(v), "forall one")
		}
		// multi-variable cube
		cube := m.Cube([]int{0, 2})
		want := ref.exists(0).exists(2)
		checkAgainstTT(t, m, m.Exists(f, cube), want, "exists multi")
		wantA := ref.forall(0).forall(2)
		checkAgainstTT(t, m, m.ForAll(f, cube), wantA, "forall multi")
	}
}

func TestAndExistsEqualsComposed(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const n = 5
	m := New(n)
	for trial := 0; trial < 200; trial++ {
		f, _ := randPair(r, m, n, 3)
		g, _ := randPair(r, m, n, 3)
		vars := []int{}
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		cube := m.Cube(vars)
		fused := m.AndExists(f, g, cube)
		composed := m.Exists(m.And(f, g), cube)
		if fused != composed {
			t.Fatalf("AndExists != Exists∘And (trial %d)", trial)
		}
	}
}

func TestCubeRoundTrip(t *testing.T) {
	m := New(6)
	vars := []int{1, 3, 5}
	cube := m.Cube(vars)
	back := m.CubeVars(cube)
	if len(back) != len(vars) {
		t.Fatalf("CubeVars returned %v", back)
	}
	for i := range vars {
		if back[i] != vars[i] {
			t.Fatalf("CubeVars order: got %v want %v", back, vars)
		}
	}
}

func TestSatCount(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n = 5
	m := New(n)
	for trial := 0; trial < 100; trial++ {
		f, ref := randPair(r, m, n, 4)
		got := m.SatCount(f, n)
		want := float64(ref.count())
		if got != want {
			t.Fatalf("SatCount = %v, want %v", got, want)
		}
	}
}

func TestAnySatSatisfies(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const n = 5
	m := New(n)
	for trial := 0; trial < 200; trial++ {
		f, _ := randPair(r, m, n, 4)
		a := m.AnySat(f)
		if f == False {
			if a != nil {
				t.Fatal("AnySat of False must be nil")
			}
			continue
		}
		env := make([]bool, n)
		for v := 0; v < n; v++ {
			env[v] = a[v] == 1
		}
		if !m.Eval(f, env) {
			t.Fatalf("AnySat returned non-satisfying assignment %v", a)
		}
	}
}

func TestPickOneAndMintermCube(t *testing.T) {
	m := New(4)
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Var(3))
	vars := []int{0, 1, 2, 3}
	vals := m.PickOne(f, vars)
	if vals == nil {
		t.Fatal("PickOne returned nil for satisfiable f")
	}
	cube := m.MintermCube(vars, vals)
	if m.And(cube, f) != cube {
		t.Fatal("picked minterm not contained in f")
	}
	if m.SatCount(cube, 4) != 1 {
		t.Fatal("minterm cube must have exactly one model")
	}
	if m.PickOne(False, vars) != nil {
		t.Fatal("PickOne of False must be nil")
	}
}

// TestSingleStateHelpersMatchReference checks PickOne against AnySat's
// assignment and MintermCube against the conjunction of its literals,
// on random functions under random variable orders and for random
// variable lists. One manager serves every trial, so scratch state
// left over from an earlier call would show.
func TestSingleStateHelpersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	const n = 6
	m := New(n)
	for trial := 0; trial < 300; trial++ {
		f, _ := randPair(r, m, n, 5)
		m.Protect(f)
		m.Reorder(r.Perm(n))
		m.Unprotect(f) // no collection runs before the next Reorder
		vars := r.Perm(n)[:1+r.Intn(n)]
		got := m.PickOne(f, vars)
		if a := m.AnySat(f); a == nil {
			if got != nil {
				t.Fatalf("trial %d: PickOne of an unsatisfiable function = %v", trial, got)
			}
		} else {
			for i, v := range vars {
				if got[i] != (a[v] == 1) {
					t.Fatalf("trial %d: PickOne(vars %v) = %v, AnySat = %v", trial, vars, got, a)
				}
			}
		}
		vars = r.Perm(n)[:1+r.Intn(n)]
		vals := make([]bool, len(vars))
		want := True
		for i, v := range vars {
			vals[i] = r.Intn(2) == 1
			want = m.And(want, m.Lit(v, vals[i]))
		}
		if got := m.MintermCube(vars, vals); got != want {
			t.Fatalf("trial %d: MintermCube(%v, %v) is not the conjunction of its literals", trial, vars, vals)
		}
	}
}

func TestAllSat(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 4
	m := New(n)
	vars := []int{0, 1, 2, 3}
	for trial := 0; trial < 100; trial++ {
		f, ref := randPair(r, m, n, 3)
		got := map[int]bool{}
		m.AllSat(f, vars, func(a []bool) bool {
			key := 0
			for v, b := range a {
				if b {
					key |= 1 << v
				}
			}
			if got[key] {
				t.Fatal("AllSat produced duplicate assignment")
			}
			got[key] = true
			return true
		})
		if len(got) != ref.count() {
			t.Fatalf("AllSat yielded %d assignments, want %d", len(got), ref.count())
		}
		for a := range got {
			if !ref.eval(a) {
				t.Fatalf("AllSat yielded non-model %b", a)
			}
		}
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := New(3)
	f := True
	calls := 0
	m.AllSat(f, []int{0, 1, 2}, func(a []bool) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestImpliesAndDisjoint(t *testing.T) {
	m := New(3)
	ab := m.And(m.Var(0), m.Var(1))
	a := m.Var(0)
	if !m.Implies(ab, a) {
		t.Fatal("a∧b must imply a")
	}
	if m.Implies(a, ab) {
		t.Fatal("a must not imply a∧b")
	}
	if !m.Disjoint(a, m.Not(a)) {
		t.Fatal("a and ¬a must be disjoint")
	}
	if m.Disjoint(a, ab) {
		t.Fatal("a and a∧b are not disjoint")
	}
}

func TestSupport(t *testing.T) {
	m := New(6)
	f := m.Xor(m.Var(1), m.And(m.Var(3), m.Var(4)))
	sup := m.Support(f)
	want := []int{1, 3, 4}
	if len(sup) != len(want) {
		t.Fatalf("Support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("Support = %v, want %v", sup, want)
		}
	}
}

// TestSizeAndSupportMatchMapWalk checks the marked walk behind Size and
// Support against a walk that keeps its own visited map, on random
// functions (complemented half the time) under a shuffled order, and
// that the walk leaves no mark behind.
func TestSizeAndSupportMatchMapWalk(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := New(6)
	m.Reorder(r.Perm(6))
	for i := 0; i < 300; i++ {
		bits := r.Uint64()
		for k := r.Intn(4); k > 0; k-- {
			bits &= r.Uint64() // sparser functions, smaller supports
		}
		f := fromTruthTable(m, 6, bits)
		if r.Intn(2) == 0 {
			f = m.Not(f)
		}
		seen := map[Ref]bool{}
		var want []int
		var walk func(Ref)
		walk = func(g Ref) {
			g &^= compBit
			if seen[g] {
				return
			}
			seen[g] = true
			if g != 0 {
				walk(m.nodes[g].low)
				walk(m.nodes[g].high)
			}
		}
		walk(f)
		for l, v := range m.level2var {
			for g := range seen {
				if g != 0 && m.level(g) == uint32(l) {
					want = append(want, v)
					break
				}
			}
		}
		if got := m.Size(f); got != len(seen) {
			t.Fatalf("function %d: Size = %d, want %d", i, got, len(seen))
		}
		if got := m.Support(f); !slices.Equal(got, want) {
			t.Fatalf("function %d: Support = %v, want %v", i, got, want)
		}
		if err := CheckInvariants(m); err != nil {
			t.Fatalf("function %d: %v", i, err)
		}
	}
}

func TestSizeMonotone(t *testing.T) {
	m := New(8)
	f := True
	prev := m.Size(f)
	if prev != 1 {
		t.Fatalf("Size(True) = %d", prev)
	}
	for v := 0; v < 8; v++ {
		f = m.And(f, m.Var(v))
		if s := m.Size(f); s != v+2 { // chain of v+1 nodes + the shared terminal
			t.Fatalf("Size of %d-var cube = %d, want %d", v+1, s, v+2)
		}
	}
}
