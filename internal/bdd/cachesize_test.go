package bdd

import (
	"testing"
	"unsafe"
)

// TestSetCacheSizeValidation: only powers of two inside the allowed
// band are accepted, and accepted sizes are observable.
func TestSetCacheSizeValidation(t *testing.T) {
	m := New(4)
	for _, bad := range []int{0, -1, 3, 1000, 1 << 9, 1<<24 + 1, 1 << 25, (1 << 16) + 1} {
		if err := m.SetCacheSize(bad); err == nil {
			t.Errorf("SetCacheSize(%d): want error, got nil", bad)
		}
	}
	for _, good := range []int{1 << 10, 1 << 12, 1 << 16, 1 << 20} {
		if err := m.SetCacheSize(good); err != nil {
			t.Fatalf("SetCacheSize(%d): %v", good, err)
		}
		if m.CacheSize() != good {
			t.Fatalf("CacheSize() = %d, want %d", m.CacheSize(), good)
		}
		if len(m.ite) != good || len(m.binop) != good {
			t.Fatalf("cache slices not resized: ite %d binop %d want %d", len(m.ite), len(m.binop), good)
		}
	}
}

// TestSetCacheSizeKeepsResults: operations after a resize still compute
// correct canonical results (the caches are memoization only).
func TestSetCacheSizeKeepsResults(t *testing.T) {
	m := New(6)
	f := m.And(m.Var(0), m.Or(m.Var(1), m.NVar(2)))
	g := m.Xor(m.Var(3), m.Var(4))
	want := m.And(f, g)
	if err := m.SetCacheSize(1 << 10); err != nil {
		t.Fatal(err)
	}
	if got := m.And(f, g); got != want {
		t.Fatalf("And after resize: got %v want %v", got, want)
	}
	if got := m.Not(m.Or(m.Not(f), m.Not(g))); got != want {
		t.Fatalf("De Morgan after resize: got %v want %v", got, want)
	}
}

// TestNewCacheSize: a new manager's computed tables start small — three
// tables of 2^12 entries, AndExists's included, within 256 KiB.
func TestNewCacheSize(t *testing.T) {
	m := New(8)
	m.AndExists(m.Var(0), m.Var(1), m.Cube([]int{1})) // allocates the AndExists table
	if m.CacheSize() != 1<<12 {
		t.Fatalf("CacheSize() = %d, want %d", m.CacheSize(), 1<<12)
	}
	bytes := len(m.ite)*int(unsafe.Sizeof(iteEntry{})) +
		len(m.binop)*int(unsafe.Sizeof(binEntry{})) +
		len(m.aex)*int(unsafe.Sizeof(aexEntry{}))
	if len(m.aex) != m.CacheSize() || bytes > 256<<10 {
		t.Fatalf("computed tables: %d AndExists entries, %d bytes; want %d entries within %d bytes",
			len(m.aex), bytes, m.CacheSize(), 256<<10)
	}
}

// TestCacheAutoGrowth: a chain of operations with no safe-point call
// between them grows the computed tables with the arena, and a pinned
// manager keeps its size.
func TestCacheAutoGrowth(t *testing.T) {
	grow := func(pin bool) *Manager {
		m := New(64)
		if pin {
			if err := m.SetCacheSize(1 << 10); err != nil {
				t.Fatal(err)
			}
		}
		for m.NumNodes() <= 1<<17 {
			m.And(randomDense(m), randomDense(m))
		}
		return m
	}
	m := grow(false)
	if m.CacheSize() < m.NumNodes() {
		t.Fatalf("auto growth: cache %d entries with %d nodes", m.CacheSize(), m.NumNodes())
	}
	if m.Stats.CacheGrowths == 0 {
		t.Fatal("auto growth: CacheGrowths not counted")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	if m := grow(true); m.CacheSize() != 1<<10 || m.Stats.CacheGrowths != 1 {
		t.Fatalf("pinned: cache %d entries after %d resizes, want %d after 1", m.CacheSize(), m.Stats.CacheGrowths, 1<<10)
	}
}

// TestCacheGrowthKeepsEntries: an Ite computed before a growth is a
// cache hit after it. Var allocates a node without touching the
// computed tables, so only the growth itself stands between the two
// calls.
func TestCacheGrowthKeepsEntries(t *testing.T) {
	m := New(defaultCacheSize + 8)
	r := m.Ite(m.Var(0), m.Var(1), m.Var(2))
	for v := 3; v < m.NumVars() && m.Stats.CacheGrowths == 0; v++ {
		m.Var(v)
	}
	if m.Stats.CacheGrowths == 0 {
		t.Fatalf("%d nodes and no table growth", m.NumNodes())
	}
	calls, hits, nodes := m.Stats.ITECalls, m.Stats.CacheHits, m.NumNodes()
	if got := m.Ite(m.Var(0), m.Var(1), m.Var(2)); got != r {
		t.Fatalf("Ite after growth: got %v want %v", got, r)
	}
	if m.Stats.ITECalls != calls+1 || m.Stats.CacheHits != hits+1 || m.NumNodes() != nodes {
		t.Fatalf("Ite after growth: %d calls, %d hits, %d nodes; want %d, %d, %d",
			m.Stats.ITECalls, m.Stats.CacheHits, m.NumNodes(), calls+1, hits+1, nodes)
	}
}

// modSum builds "Σ w(i)·x_i ≡ 0 (mod p)" over variables 0..n-1
// bottom-up, one node per level and residue.
func modSum(m *Manager, n, p int, w func(int) int) Ref {
	next := make([]Ref, p)
	for r := range next {
		next[r] = False
	}
	next[0] = True
	for i := n - 1; i >= 0; i-- {
		cur := make([]Ref, p)
		for r := range cur {
			cur[r] = m.mk(uint32(i), next[r], next[(r+w(i))%p])
		}
		next = cur
	}
	return next[0]
}

// TestAndExistsAcrossGrowths: one relational product whose recursion
// allocates through several table growths computes the same function as
// on a manager pinned at 2^16 entries, leaves the manager consistent,
// and stores its own result where a repeat finds it — so the slots
// stored after a mid-recursion growth are the current ones.
func TestAndExistsAcrossGrowths(t *testing.T) {
	const n = 180
	product := func(m *Manager) Ref {
		f := modSum(m, n, 7, func(int) int { return 1 })
		g := modSum(m, n, 11, func(i int) int { return i%10 + 1 })
		return m.AndExists(f, g, m.Cube([]int{n - 3, n - 1}))
	}
	pinned := New(n)
	if err := pinned.SetCacheSize(1 << 16); err != nil {
		t.Fatal(err)
	}
	want := product(pinned)

	m := New(n)
	f := modSum(m, n, 7, func(int) int { return 1 })
	g := modSum(m, n, 11, func(i int) int { return i%10 + 1 })
	cube := m.Cube([]int{n - 3, n - 1})
	growths := m.Stats.CacheGrowths
	got := m.AndExists(f, g, cube)
	if d := m.Stats.CacheGrowths - growths; d < 2 {
		t.Fatalf("the product crossed %d table growths, want at least 2", d)
	}
	if pinned.CopyTo(m, want) != got {
		t.Fatal("AndExists across growths differs from the pinned manager's result")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	lookups, hits, nodes := m.Stats.AndExistsLookups, m.Stats.AndExistsHits, m.NumNodes()
	if m.AndExists(f, g, cube) != got || m.Stats.AndExistsLookups != lookups+1 ||
		m.Stats.AndExistsHits != hits+1 || m.NumNodes() != nodes {
		t.Fatalf("repeated AndExists: %d lookups, %d hits, %d nodes; want %d, %d, %d",
			m.Stats.AndExistsLookups, m.Stats.AndExistsHits, m.NumNodes(), lookups+1, hits+1, nodes)
	}
}

// randomDense builds a dense-ish function to bloat the arena quickly.
var denseSeed uint64 = 1

func randomDense(m *Manager) Ref {
	xorshift := func() uint64 {
		denseSeed ^= denseSeed << 13
		denseSeed ^= denseSeed >> 7
		denseSeed ^= denseSeed << 17
		return denseSeed
	}
	acc := True
	for i := 0; i < 64; i++ {
		if xorshift()%3 == 0 {
			acc = m.And(acc, m.Lit(i, xorshift()%2 == 0))
		} else if xorshift()%3 == 1 {
			acc = m.Xor(acc, m.Var(i))
		}
	}
	return acc
}
