package bdd

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Dynamic-reordering correctness suite. The central property: after any
// sequence of operations, auto-sift events, explicit sifts and
// reorders, every protected or registered ref keeps its value and still
// denotes the same boolean function, verified pointwise against an
// independently maintained truth table over all 2^n assignments.

// bitTable is an explicit truth table over n <= 12 variables: bit a of
// the table (assignment a, bit v of a = variable v) is the function's
// value.
type bitTable struct {
	n    int
	bits []uint64
}

func newBitTable(n int) bitTable {
	return bitTable{n: n, bits: make([]uint64, ((1<<n)+63)/64)}
}

func (t bitTable) get(a int) bool { return t.bits[a/64]>>(a%64)&1 == 1 }
func (t *bitTable) set(a int, v bool) {
	if v {
		t.bits[a/64] |= 1 << (a % 64)
	} else {
		t.bits[a/64] &^= 1 << (a % 64)
	}
}

func (t bitTable) apply(u bitTable, op func(a, b bool) bool) bitTable {
	out := newBitTable(t.n)
	for a := 0; a < 1<<t.n; a++ {
		out.set(a, op(t.get(a), u.get(a)))
	}
	return out
}

// randTracked builds a random BDD alongside its truth table.
func randTracked(r *rand.Rand, m *Manager, n, depth int) (Ref, bitTable) {
	if depth == 0 || r.Intn(4) == 0 {
		v := r.Intn(n)
		tt := newBitTable(n)
		for a := 0; a < 1<<n; a++ {
			tt.set(a, a>>v&1 == 1)
		}
		if r.Intn(2) == 0 {
			return m.Var(v), tt
		}
		neg := tt.apply(tt, func(a, _ bool) bool { return !a })
		return m.NVar(v), neg
	}
	f1, t1 := randTracked(r, m, n, depth-1)
	f2, t2 := randTracked(r, m, n, depth-1)
	switch r.Intn(4) {
	case 0:
		return m.And(f1, f2), t1.apply(t2, func(a, b bool) bool { return a && b })
	case 1:
		return m.Or(f1, f2), t1.apply(t2, func(a, b bool) bool { return a || b })
	case 2:
		return m.Xor(f1, f2), t1.apply(t2, func(a, b bool) bool { return a != b })
	default:
		return m.Eq(f1, f2), t1.apply(t2, func(a, b bool) bool { return a == b })
	}
}

func envFor(n, a int) []bool {
	env := make([]bool, n)
	for v := 0; v < n; v++ {
		env[v] = a>>v&1 == 1
	}
	return env
}

func checkRootTable(t *testing.T, m *Manager, f Ref, tt bitTable, what string) {
	t.Helper()
	for a := 0; a < 1<<tt.n; a++ {
		if m.Eval(f, envFor(tt.n, a)) != tt.get(a) {
			t.Fatalf("%s: mismatch at assignment %b", what, a)
		}
	}
}

// TestAutoReorderPreservesRegisteredRoots is the reorder property test:
// 300 random BDDs (including negations), built across 30 managers with
// aggressive auto-sifting enabled, every root registered; at random
// trigger points the growth check fires a sift, and after every sift
// event — and at the end — every registered root must still equal its
// truth table and the manager must pass CheckInvariants.
func TestAutoReorderPreservesRegisteredRoots(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const trials = 30
	const rootsPerTrial = 10
	for trial := 0; trial < trials; trial++ {
		n := 4 + r.Intn(9) // 4..12 variables
		m := New(n)
		// Pair-group half the managers so grouped and ungrouped sifting
		// both get exercised.
		if trial%2 == 0 && n%2 == 0 {
			for v := 0; v < n; v += 2 {
				m.GroupVars(v, v+1)
			}
		}
		m.EnableAutoReorder(&ReorderOptions{GrowthTrigger: 1.05, MinNodes: 1})

		roots := make([]Ref, 0, rootsPerTrial)
		tables := make([]bitTable, 0, rootsPerTrial)
		id := m.RegisterRoots(func(visit func(Ref)) {
			for _, f := range roots {
				visit(f)
			}
		})

		sifts := m.Stats.AutoReorders
		for i := 0; i < rootsPerTrial; i++ {
			f, tt := randTracked(r, m, n, 3+r.Intn(3))
			if i%3 == 2 { // negation cases
				f = m.Not(f)
				tt = tt.apply(tt, func(a, _ bool) bool { return !a })
			}
			roots = append(roots, f)
			tables = append(tables, tt)
			if r.Intn(2) == 0 {
				// Random trigger point: the growth check may fire here.
				m.ReorderIfNeeded()
			}
			if m.Stats.AutoReorders != sifts {
				sifts = m.Stats.AutoReorders
				if err := CheckInvariants(m); err != nil {
					t.Fatalf("trial %d after auto-sift: %v", trial, err)
				}
				for j := range roots {
					checkRootTable(t, m, roots[j], tables[j], "after auto-sift")
				}
			}
		}
		// Force one final explicit sift and re-verify everything.
		m.SiftNow()
		if err := CheckInvariants(m); err != nil {
			t.Fatalf("trial %d after final sift: %v", trial, err)
		}
		for j := range roots {
			checkRootTable(t, m, roots[j], tables[j], "after final sift")
		}
		m.Unregister(id)
	}
}

// TestSiftKeepsRegisteredRefs is the regression test for the
// dangling-ref bug of the pre-registry sift: a Ref held by a client but
// not passed to the sift as a root was silently invalidated. A
// registered ref is a root, and a sift moves no Ref, so it comes out
// with the same value and function.
func TestSiftKeepsRegisteredRefs(t *testing.T) {
	m := New(6)
	// f is the interleaving blowup the sift reorders; g is held by a
	// "different client" and only registered.
	f := m.Protect(m.AndN(
		m.Eq(m.Var(0), m.Var(3)),
		m.Eq(m.Var(1), m.Var(4)),
		m.Eq(m.Var(2), m.Var(5)),
	))
	g := m.Xor(m.Var(0), m.Var(5))
	gBefore := g
	id := m.RegisterRefs(&g)
	defer m.Unregister(id)

	m.SiftNow()
	if m.Stats.Reorderings == 0 {
		t.Fatal("sift committed no reorder; blowup case should move variables")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	if g != gBefore {
		t.Fatalf("registered ref moved in the sift: %d -> %d", gBefore, g)
	}
	for a := 0; a < 1<<6; a++ {
		env := envFor(6, a)
		if m.Eval(g, env) != (env[0] != env[5]) {
			t.Fatalf("registered ref wrong after sift at assignment %b", a)
		}
		if m.Eval(f, env) != ((env[0] == env[3]) && (env[1] == env[4]) && (env[2] == env[5])) {
			t.Fatalf("sifted root wrong at assignment %b", a)
		}
	}
}

// TestGroupVarsBlocksStayAdjacent: grouped pairs must be adjacent after
// sifting, in the registered within-group order.
func TestGroupVarsBlocksStayAdjacent(t *testing.T) {
	m := New(8)
	for v := 0; v < 8; v += 2 {
		m.GroupVars(v, v+1)
	}
	// A function whose optimal order splits pairs if they may split.
	f := m.AndN(
		m.Eq(m.Var(0), m.Var(6)),
		m.Eq(m.Var(2), m.Var(4)),
		m.Xor(m.Var(1), m.Var(7)),
	)
	id := m.RegisterRefs(&f)
	defer m.Unregister(id)
	m.SiftNow()
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	order := m.Order()
	pos := make([]int, 8)
	for lvl, v := range order {
		pos[v] = lvl
	}
	for v := 0; v < 8; v += 2 {
		if pos[v+1] != pos[v]+1 {
			t.Fatalf("group (%d,%d) split: levels %d and %d (order %v)", v, v+1, pos[v], pos[v+1], order)
		}
	}
}

// TestGroupVarsValidation: out-of-range and doubly-grouped variables
// panic.
func TestGroupVarsValidation(t *testing.T) {
	m := New(4)
	m.GroupVars(0, 1)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", what)
			}
		}()
		fn()
	}
	mustPanic("regroup", func() { m.GroupVars(1, 2) })
	mustPanic("out of range", func() { m.GroupVars(2, 7) })
}

// TestGrowthTriggerAndPause: the growth trigger fires only past the
// configured multiple of the post-last-sift size, and PauseAutoReorder
// suspends it.
func TestGrowthTriggerAndPause(t *testing.T) {
	m := New(10)
	m.EnableAutoReorder(&ReorderOptions{GrowthTrigger: 1.1, MinNodes: 1})
	if m.ReorderIfNeeded() {
		t.Fatal("trigger fired on an empty manager")
	}
	var f Ref = True
	id := m.RegisterRefs(&f)
	defer m.Unregister(id)
	for i := 0; i < 10; i++ {
		f = m.And(f, m.Xor(m.Var(i), m.Var((i+3)%10)))
	}
	resume := m.PauseAutoReorder()
	if m.ReorderIfNeeded() {
		t.Fatal("trigger fired while paused")
	}
	resume()
	if !m.ReorderIfNeeded() {
		t.Fatal("trigger did not fire after growth")
	}
	if m.Stats.AutoReorders != 1 {
		t.Fatalf("AutoReorders = %d, want 1", m.Stats.AutoReorders)
	}
	// Immediately after a sift the live count equals the baseline; the
	// trigger must not re-fire.
	if m.ReorderIfNeeded() {
		t.Fatal("trigger re-fired immediately after a sift")
	}
}

// TestRegisteredRefsSurviveGC: refs visible through the registry are GC
// roots even without Protect.
func TestRegisteredRefsSurviveGC(t *testing.T) {
	m := New(6)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(2)))
	id := m.RegisterRefs(&f)
	m.GC()
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	if !m.Eval(f, []bool{true, false, false, false, false, false}) {
		t.Fatal("registered ref collected by GC")
	}
	m.Unregister(id)
	m.GC()
	if m.NumNodes() != 1 {
		t.Fatalf("after unregister+GC, %d nodes live (want the terminal only)", m.NumNodes())
	}
}

// TestReorderStatsAccounting: a committed sift updates the counters the
// checker and cmd/smv surface.
func TestReorderStatsAccounting(t *testing.T) {
	m := New(6)
	f := m.AndN(
		m.Eq(m.Var(0), m.Var(3)),
		m.Eq(m.Var(1), m.Var(4)),
		m.Eq(m.Var(2), m.Var(5)),
	)
	id := m.RegisterRefs(&f)
	defer m.Unregister(id)
	m.SiftNow()
	if m.Stats.SiftPasses == 0 || m.Stats.SiftTrials == 0 {
		t.Fatalf("sift counters not updated: %+v", m.Stats)
	}
	if m.Stats.ReorderTime == 0 {
		t.Fatal("ReorderTime not accumulated")
	}
}

// FuzzSift: arbitrary truth tables over 6 variables, optional pair
// grouping, one auto plus one explicit sift; roots must survive
// semantically, the manager structurally, and the arena must match a
// rebuild of the roots under the sifted order.
func FuzzSift(f *testing.F) {
	f.Add(uint64(0xdeadbeefcafe), uint64(0x0123456789ab), true)
	f.Add(uint64(0), uint64(^uint64(0)), false)
	f.Add(uint64(0xaaaaaaaaaaaaaaaa), uint64(0x5555555555555555), true)
	f.Fuzz(func(t *testing.T, bitsA, bitsB uint64, group bool) {
		const n = 6
		m := New(n)
		if group {
			for v := 0; v < n; v += 2 {
				m.GroupVars(v, v+1)
			}
		}
		m.EnableAutoReorder(&ReorderOptions{GrowthTrigger: 1.01, MinNodes: 1})
		a := fromTruthTable(m, n, bitsA)
		b := fromTruthTable(m, n, bitsB)
		roots := []Ref{a, b, m.Not(m.And(a, b))}
		m.RegisterRefs(&roots[0], &roots[1], &roots[2])
		m.ReorderIfNeeded()
		m.SiftNow()
		if err := CheckInvariants(m); err != nil {
			t.Fatal(err)
		}
		for asg := 0; asg < 1<<n; asg++ {
			env := envFor(n, asg)
			va := bitsA>>asg&1 == 1
			vb := bitsB>>asg&1 == 1
			if m.Eval(roots[0], env) != va {
				t.Fatalf("root a wrong at %b", asg)
			}
			if m.Eval(roots[1], env) != vb {
				t.Fatalf("root b wrong at %b", asg)
			}
			if m.Eval(roots[2], env) != !(va && vb) {
				t.Fatalf("root c wrong at %b", asg)
			}
		}
		requireReorderOracle(t, m, roots)
	})
}

// TestReorderNumberingIsDeterministic: two managers built by the same
// operations and reordered to the same order hold the same node array.
// The protected roots live in a map, so an order change that visited
// them in iteration order to place nodes would number the arena
// differently on every run, and every computed-table lookup counter
// would move with it.
func TestReorderNumberingIsDeterministic(t *testing.T) {
	const n = 10
	build := func() *Manager {
		r := rand.New(rand.NewSource(7))
		m := New(n)
		for i := 0; i < 200; i++ {
			f, _ := randTracked(r, m, n, 6)
			m.Protect(f)
		}
		return m
	}
	order := rand.New(rand.NewSource(8)).Perm(n)
	a, b := build(), build()
	a.Reorder(order)
	b.Reorder(order)
	if !slices.Equal(a.nodes, b.nodes) {
		t.Fatalf("identical managers reordered to one order numbered their nodes differently (%d vs %d nodes)",
			a.NumNodes(), b.NumNodes())
	}
}

// TestReorderKeepsRefs: an order change moves no Ref. After a Reorder
// to a random order, every protected and every registered ref has its
// old value and still denotes its function.
func TestReorderKeepsRefs(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := New(n)
		roots := make([]Ref, 6)
		tables := make([]bitTable, len(roots))
		for i := range roots {
			roots[i], tables[i] = randTracked(r, m, n, 4)
		}
		for _, f := range roots[:3] {
			m.Protect(f)
		}
		m.RegisterRefs(&roots[3], &roots[4], &roots[5])
		before := slices.Clone(roots)
		order := r.Perm(n)
		m.Reorder(order)
		if !slices.Equal(m.Order(), order) {
			t.Fatalf("trial %d: order %v, want %v", trial, m.Order(), order)
		}
		if err := CheckInvariants(m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(roots, before) {
			t.Fatalf("trial %d: refs moved: %v -> %v", trial, before, roots)
		}
		for i, f := range roots {
			checkRootTable(t, m, f, tables[i], "after reorder")
		}
	}
}

// TestSiftNormalizationKeepsRefs: a Reorder that splits current/next
// pairs leaves the next sift to make every group adjacent again before
// it sifts. That normalization, too, moves no Ref.
func TestSiftNormalizationKeepsRefs(t *testing.T) {
	const n = 8
	r := rand.New(rand.NewSource(31))
	m := New(n)
	for v := 0; v < n; v += 2 {
		m.GroupVars(v, v+1)
	}
	roots := make([]Ref, 4)
	tables := make([]bitTable, len(roots))
	for i := range roots {
		roots[i], tables[i] = randTracked(r, m, n, 4)
	}
	m.RegisterRefs(&roots[0], &roots[1], &roots[2], &roots[3])
	// Split the pairs (0, 1) and (4, 5).
	m.Reorder([]int{0, 2, 3, 5, 6, 7, 4, 1})
	before := slices.Clone(roots)
	reorderings := m.Stats.Reorderings
	m.SiftNow()
	if m.Stats.Reorderings == reorderings {
		t.Fatal("the sift left the split pairs in place")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v += 2 {
		if d := m.LevelOf(v+1) - m.LevelOf(v); d != 1 && d != -1 {
			t.Fatalf("group (%d,%d) not adjacent after the sift: order %v", v, v+1, m.Order())
		}
	}
	if !slices.Equal(roots, before) {
		t.Fatalf("registered refs moved: %v -> %v", before, roots)
	}
	for i, f := range roots {
		checkRootTable(t, m, f, tables[i], "after sift")
	}
}

// TestReenableKeepsGrowthBaseline: calling EnableAutoReorder again while
// automatic reordering is on (smvd re-arms it on every request, with a
// sift time bound when the request has a deadline) changes the options,
// not the size the growth trigger measures from.
func TestReenableKeepsGrowthBaseline(t *testing.T) {
	const n = 64
	m := New(n)
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1})
	for v := 0; v+1 < n; v += 2 {
		m.Protect(m.Xor(m.Var(v), m.Var(v+1)))
	}
	m.SiftNow()
	base := m.NumNodes()
	// grow adds unprotected conjunctions of variable pairs, a few nodes
	// at a time, until the allocated count reaches target.
	pairs := 0
	grow := func(target int) {
		for m.NumNodes() < target {
			m.And(m.Var(pairs%n), m.Var((pairs/n+pairs+1)%n))
			pairs++
		}
	}
	grow(base * 3 / 2)
	if m.ReorderIfNeeded() {
		t.Fatal("the trigger fired at 1.5 times the post-sift size")
	}
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1, SiftMaxTime: time.Minute})
	grow(base*2 + 1)
	if got := m.NumNodes(); got >= base*3 {
		t.Fatalf("grew to %d nodes, past 3 times the post-sift size %d", got, base)
	}
	if !m.ReorderIfNeeded() {
		t.Fatalf("no sift at %d nodes, past twice the post-sift size %d: re-arming moved the baseline",
			m.NumNodes(), base)
	}
}

// FuzzReorder: arbitrary truth tables over 6 variables, optional pair
// grouping, and a target order drawn from the input — with grouping, an
// order that keeps every pair adjacent, as the orders a grouped manager
// saves for LoadNamed do. After the Reorder the invariants hold, the
// roots keep their values and functions, and the arena matches a
// rebuild of the roots under the target order.
func FuzzReorder(f *testing.F) {
	f.Add(uint64(0xdeadbeefcafe), uint64(0x0123456789ab), uint64(5), true)
	f.Add(uint64(0), uint64(^uint64(0)), uint64(0), false)
	f.Add(uint64(0xaaaaaaaaaaaaaaaa), uint64(0x5555555555555555), uint64(719), true)
	f.Add(uint64(0x8000000000000001), uint64(0x00ff00ff00ff00ff), uint64(1<<40+3), false)
	f.Fuzz(func(t *testing.T, bitsA, bitsB, orderBits uint64, group bool) {
		const n = 6
		m := New(n)
		order := make([]int, n)
		if group {
			pairs := []int{0, 1, 2}
			permute(pairs, &orderBits)
			for i, p := range pairs {
				m.GroupVars(2*p, 2*p+1)
				order[2*i], order[2*i+1] = 2*p, 2*p+1
				if orderBits&1 == 1 {
					order[2*i], order[2*i+1] = 2*p+1, 2*p
				}
				orderBits >>= 1
			}
		} else {
			for v := range order {
				order[v] = v
			}
			permute(order, &orderBits)
		}
		a := fromTruthTable(m, n, bitsA)
		b := fromTruthTable(m, n, bitsB)
		roots := []Ref{m.Protect(a), b, m.Not(m.And(a, b))}
		m.RegisterRefs(&roots[1], &roots[2])
		before := slices.Clone(roots)
		m.Reorder(order)
		if !slices.Equal(m.Order(), order) {
			t.Fatalf("order %v, want %v", m.Order(), order)
		}
		if err := CheckInvariants(m); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(roots, before) {
			t.Fatalf("roots moved: %v -> %v", before, roots)
		}
		for asg := 0; asg < 1<<n; asg++ {
			env := envFor(n, asg)
			va := bitsA>>asg&1 == 1
			vb := bitsB>>asg&1 == 1
			if m.Eval(roots[0], env) != va || m.Eval(roots[1], env) != vb || m.Eval(roots[2], env) != !(va && vb) {
				t.Fatalf("a root changed its function at %b", asg)
			}
		}
		requireReorderOracle(t, m, roots)
	})
}

// permute shuffles p in place by Fisher–Yates, taking each swap index
// as the next mixed-radix digit of *bits.
func permute(p []int, bits *uint64) {
	for i := len(p) - 1; i > 0; i-- {
		j := int(*bits % uint64(i+1))
		*bits /= uint64(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
