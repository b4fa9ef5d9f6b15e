package bdd

import (
	"math/rand"
	"testing"
	"time"
)

// Tests for the in-place adjacent-level swap engine (swap.go): the swap
// primitive against a truth-table oracle with invariants checked after
// every swap, sifting against a rebuild of its roots under the order it
// settles on, Ref stability outside a swapped pair, the lazy
// cache-invalidation granularity, and the SiftMaxTime budget.

// sessionFor protects the roots and opens a swap session the way
// SiftNow would (GC first so the refcounts see only live nodes).
func sessionFor(m *Manager, roots []Ref) {
	for _, r := range roots {
		m.Protect(r)
	}
	m.GC()
	m.beginSwapSession()
}

// TestSwapLevelsPreservesSemantics runs random swaps in one session
// with the invariants (inside the session, the level lists') and the
// roots' truth tables checked after every swap, and the reorder
// oracle's node count once the session has ended and a collection has
// run. Each seed runs twice: in a session opened after a collection, as
// every order change opens one, and in one opened over garbage. There
// a node no root reaches enters at refcount zero; a swap that meets it
// on the lower level frees it, and the cascade frees the garbage below
// it, leaving stale slots in deeper levels' lists for later swaps to
// skip.
func TestSwapLevelsPreservesSemantics(t *testing.T) {
	const n = 6
	stale := 0
	for _, collected := range []bool{true, false} {
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			m := New(n)
			roots := make([]Ref, 0, 3)
			tables := make([]bitTable, 0, 3)
			for i := 0; i < 3; i++ {
				f, tt := randTracked(r, m, n, 4)
				roots = append(roots, f)
				tables = append(tables, tt)
			}
			if collected {
				sessionFor(m, roots)
			} else {
				for _, f := range roots {
					m.Protect(f)
				}
				for i := 0; i < 3; i++ {
					randTracked(r, m, n, 4) // garbage
				}
				m.beginSwapSession()
			}
			for step := 0; step < 40; step++ {
				l := r.Intn(n - 1)
				m.swapLevels(l)
				if err := CheckInvariants(m); err != nil {
					t.Fatalf("collected %v seed %d step %d swap(%d): %v", collected, seed, step, l, err)
				}
				for i, f := range roots {
					checkRootTable(t, m, f, tables[i], "after swap")
				}
				for lvl, list := range m.sift.levels {
					for _, i := range list {
						if m.nodes[i].lvl != uint32(lvl) {
							stale++
						}
					}
				}
			}
			m.endSwapSession()
			if err := CheckInvariants(m); err != nil {
				t.Fatalf("collected %v seed %d after session: %v", collected, seed, err)
			}
			m.GC()
			for i, f := range roots {
				checkRootTable(t, m, f, tables[i], "after session")
			}
			requireReorderOracle(t, m, roots)
		}
	}
	if stale == 0 {
		t.Fatal("no swap left a stale list entry; the garbage sessions want some")
	}
}

// TestSwapRefStability pins the headline property of the in-place swap:
// a swap of levels l/l+1 leaves every root-reachable Ref whose top
// level is outside the pair with a bit-identical (level, low, high)
// triple, and every reachable Ref — inside the pair too — denoting the
// same function.
func TestSwapRefStability(t *testing.T) {
	const n = 6
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		m := New(n)
		roots := make([]Ref, 0, 3)
		for i := 0; i < 3; i++ {
			f, _ := randTracked(r, m, n, 4)
			roots = append(roots, f)
		}
		sessionFor(m, roots)
		for step := 0; step < 15; step++ {
			l := r.Intn(n - 1)

			// Track plain (sign-stripped) refs: f and ¬f are one node.
			reach := make(map[Ref]node)
			var walk func(Ref)
			walk = func(f Ref) {
				f &^= compBit
				if f == 0 {
					return
				}
				if _, ok := reach[f]; ok {
					return
				}
				nd := m.nodes[f]
				reach[f] = nd
				walk(nd.low)
				walk(nd.high)
			}
			for _, f := range roots {
				walk(f)
			}
			before := make(map[Ref]bitTable, len(reach))
			for f := range reach {
				tt := newBitTable(n)
				for a := 0; a < 1<<n; a++ {
					tt.set(a, m.Eval(f, envFor(n, a)))
				}
				before[f] = tt
			}

			m.swapLevels(l)

			for f, nd := range reach {
				got := m.nodes[f]
				if got.lvl == terminalLevel {
					// Freed by the swap's cascade: legal only for nodes
					// that genuinely lost their last reference.
					if m.sift.rc[f] != 0 {
						t.Fatalf("seed %d swap(%d): ref %d freed with refcount %d",
							seed, l, f, m.sift.rc[f])
					}
					continue
				}
				if int(nd.lvl) != l && int(nd.lvl) != l+1 {
					if got.lvl != nd.lvl || got.low != nd.low || got.high != nd.high {
						t.Fatalf("seed %d swap(%d): ref %d at level %d changed: (%d,%d,%d) -> (%d,%d,%d)",
							seed, l, f, nd.lvl, nd.lvl, nd.low, nd.high, got.lvl, got.low, got.high)
					}
				}
				tt := before[f]
				for a := 0; a < 1<<n; a++ {
					if m.Eval(f, envFor(n, a)) != tt.get(a) {
						t.Fatalf("seed %d swap(%d): ref %d changed denotation at %b", seed, l, f, a)
					}
				}
			}
		}
		m.endSwapSession()
	}
}

// TestSiftMatchesReorderOracle sifts a manager in place and rebuilds
// its roots under the order the sift settled on. Order and roots fix a
// canonical arena, so the two must hold the same functions in the same
// number of nodes: a swap that leaks an orphaned node or frees a live
// one breaks the count even when every root still evaluates correctly.
func TestSiftMatchesReorderOracle(t *testing.T) {
	const n = 6
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		m := New(n)
		if seed%2 == 0 {
			m.GroupVars(0, 1)
			m.GroupVars(2, 3)
		}
		var roots []Ref
		var tables []bitTable
		for i := 0; i < 4; i++ {
			f, tt := randTracked(r, m, n, 4)
			roots = append(roots, f)
			tables = append(tables, tt)
		}
		m.RegisterRefs(&roots[0], &roots[1], &roots[2], &roots[3])
		m.EnableAutoReorder(&ReorderOptions{MinNodes: 1})
		m.SiftNow()
		if err := CheckInvariants(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, f := range roots {
			checkRootTable(t, m, f, tables[i], "after sift")
		}
		if m.Stats.SiftSwaps == 0 && m.Stats.SiftTrials > 0 {
			t.Fatalf("seed %d: sift ran %d trials without a single swap",
				seed, m.Stats.SiftTrials)
		}
		requireReorderOracle(t, m, roots)
	}
}

// requireReorderOracle rebuilds roots, which must be all m holds live,
// in an oracle manager created in m's order: SaveNamed, then LoadNamed
// into NewWithOrder(m.Order()), which builds every node through ITE
// and the unique table without a single swap. It requires the same
// functions in the same number of live nodes. The oracle alone is
// collected after the load, whose ITE calls leave garbage behind; an
// order change must leave none in m.
func requireReorderOracle(t *testing.T, m *Manager, roots []Ref) {
	t.Helper()
	oracle := NewWithOrder(m.Order())
	oracleRoots := loadRoots(t, oracle, saveRoots(t, m, roots...))
	for _, f := range oracleRoots {
		oracle.Protect(f)
	}
	oracle.GC()
	if err := CheckInvariants(oracle); err != nil {
		t.Fatalf("reorder oracle: %v", err)
	}
	n := m.NumVars()
	for i := range roots {
		for a := 0; a < 1<<n; a++ {
			env := envFor(n, a)
			if m.Eval(roots[i], env) != oracle.Eval(oracleRoots[i], env) {
				t.Fatalf("root %d differs from the reorder oracle at assignment %b", i, a)
			}
		}
	}
	if got, want := m.NumNodes(), oracle.NumNodes(); got != want {
		t.Fatalf("manager holds %d live nodes, the reorder oracle %d under the same order", got, want)
	}
}

// TestSiftCacheGranularity guards the invalidation granularity: a sift
// event that commits no swap must keep the operation caches warm, and
// after a committed sift the Apply cache must fill and hit again rather
// than collapse (entries keyed by surviving Refs stay meaningful).
func TestSiftCacheGranularity(t *testing.T) {
	// One block only: the driver has nothing to move, so no swap runs.
	m := New(4)
	m.GroupVars(0, 1, 2, 3)
	f := m.Protect(m.Xor(m.Var(0), m.Var(1)))
	g := m.Protect(m.Xor(m.Var(2), m.Var(3)))
	h := m.Protect(m.And(f, g))
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1})

	m.GC()      // flush construction garbage so the sift's GC frees nothing
	m.And(f, g) // prime the cache (all result nodes already live via h)
	hits := m.Stats.CacheHits
	m.SiftNow()
	if m.Stats.SiftSwaps != 0 {
		t.Fatalf("single-block sift ran %d swaps", m.Stats.SiftSwaps)
	}
	if m.And(f, g) != h {
		t.Fatal("cached op changed value")
	}
	if m.Stats.CacheHits == hits {
		t.Fatal("no-swap sift dropped the op caches: repeated And missed")
	}

	// Committed sift: caches are rebuilt on demand and must hit again.
	m2 := New(6)
	r := rand.New(rand.NewSource(8))
	a, _ := randTracked(r, m2, 6, 4)
	b, _ := randTracked(r, m2, 6, 4)
	m2.Protect(a)
	m2.Protect(b)
	m2.EnableAutoReorder(&ReorderOptions{MinNodes: 1})
	m2.SiftNow()
	if m2.Stats.SiftSwaps == 0 {
		t.Skip("sift moved nothing; nothing to check")
	}
	m2.And(a, b)
	lookups, hits2 := m2.Stats.CacheLookups, m2.Stats.CacheHits
	m2.And(a, b)
	if m2.Stats.CacheLookups == lookups {
		t.Fatal("second And made no cache lookup")
	}
	if m2.Stats.CacheHits == hits2 {
		t.Fatal("apply cache does not hit after a committed sift")
	}
}

func TestSiftMaxTimeBudget(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(9))
	m := New(n)
	roots := make([]Ref, 0, 3)
	tables := make([]bitTable, 0, 3)
	for i := 0; i < 3; i++ {
		f, tt := randTracked(r, m, n, 4)
		roots = append(roots, m.Protect(f))
		tables = append(tables, tt)
	}
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1, SiftMaxTime: time.Nanosecond})
	m.SiftNow()
	if m.Stats.SiftTimeouts == 0 {
		t.Fatal("nanosecond budget did not time the sift out")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	for i, f := range roots {
		checkRootTable(t, m, f, tables[i], "after timed-out sift")
	}
}

func TestLevelCountsAndTopLevels(t *testing.T) {
	const n = 6
	r := rand.New(rand.NewSource(11))
	m := New(n)
	for i := 0; i < 3; i++ {
		f, _ := randTracked(r, m, n, 4)
		m.Protect(f)
	}
	check := func(when string) {
		t.Helper()
		counts := m.LevelCounts()
		scan := make([]int, n)
		total := 0
		for i := 1; i < len(m.nodes); i++ {
			if lvl := m.nodes[i].lvl &^ markBit; lvl != terminalLevel {
				scan[lvl]++
				total++
			}
		}
		for l := 0; l < n; l++ {
			if counts[l] != scan[l] {
				t.Fatalf("%s: LevelCounts[%d] = %d, arena scan says %d", when, l, counts[l], scan[l])
			}
		}
		if total != m.NumNodes()-1 {
			t.Fatalf("%s: counts sum %d, live non-terminals %d", when, total, m.NumNodes()-1)
		}
		top := m.TopLevels(3)
		for i := 1; i < len(top); i++ {
			if top[i].Count > top[i-1].Count {
				t.Fatalf("%s: TopLevels not sorted: %+v", when, top)
			}
		}
		for _, lo := range top {
			if counts[lo.Level] != lo.Count || m.VarAtLevel(lo.Level) != lo.Var {
				t.Fatalf("%s: TopLevels entry %+v disagrees with LevelCounts/order", when, lo)
			}
		}
	}
	check("fresh")
	m.GC()
	check("after GC")
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1})
	m.SiftNow()
	check("after sift")
}

// FuzzSwap drives random swap sequences against an unswapped reference
// manager holding the same functions. After the session it requires
// clean invariants and, through the reorder oracle, exactly the nodes
// the two roots reach under the order the swaps left: a session whose
// level lists leak an orphan or drop a live node fails the count.
func FuzzSwap(f *testing.F) {
	f.Add(uint16(0xBEEF), uint32(0xCAFEBABE), []byte{0, 1, 2, 3, 2, 1, 0})
	f.Add(uint16(0x1234), uint32(7), []byte{3, 3, 3, 3})
	f.Add(uint16(0xFFFF), uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, bitsA uint16, bitsB uint32, swaps []byte) {
		const n = 5
		if len(swaps) > 32 {
			swaps = swaps[:32]
		}
		m := New(n)
		ref := New(n)
		fa := m.Protect(fromTruthTable(m, n, uint64(bitsA)))
		fb := m.Protect(fromTruthTable(m, n, uint64(bitsB)))
		ra := ref.fromTT(t, n, uint64(bitsA))
		rb := ref.fromTT(t, n, uint64(bitsB))
		m.GC()
		m.beginSwapSession()
		for _, b := range swaps {
			m.swapLevels(int(b) % (n - 1))
			if err := CheckInvariants(m); err != nil {
				t.Fatal(err)
			}
		}
		m.endSwapSession()
		if err := CheckInvariants(m); err != nil {
			t.Fatal(err)
		}
		requireReorderOracle(t, m, []Ref{fa, fb})
		for a := 0; a < 1<<n; a++ {
			env := envFor(n, a)
			if m.Eval(fa, env) != ref.Eval(ra, env) {
				t.Fatalf("root A diverged from reference at assignment %b", a)
			}
			if m.Eval(fb, env) != ref.Eval(rb, env) {
				t.Fatalf("root B diverged from reference at assignment %b", a)
			}
		}
	})
}

// fromTT is fromTruthTable with the *testing.T threaded for symmetry in
// the fuzz body.
func (m *Manager) fromTT(t *testing.T, n int, bits uint64) Ref {
	t.Helper()
	return fromTruthTable(m, n, bits)
}
