package bdd

import (
	"math"
	"testing"
	"unsafe"
)

// pinCache gives m an empty computed table of n slots (a power of two)
// that never grows.
func pinCache(m *Manager, n int) {
	m.cache = make([]cacheEntry, n)
	m.growCachesAt = math.MaxInt
}

// TestNewCacheSize: a new manager's computed table starts small, and
// ITE, AndExists and Exists all run in it: one table of 2^12 slots of
// 20 bytes, within 80 KiB.
func TestNewCacheSize(t *testing.T) {
	m := New(8)
	m.AndExists(m.Var(0), m.Var(1), m.Cube([]int{1}))
	m.Exists(m.And(m.Var(2), m.Var(3)), m.Cube([]int{3}))
	if m.CacheSize() != 1<<12 {
		t.Fatalf("CacheSize() = %d, want %d", m.CacheSize(), 1<<12)
	}
	if size := unsafe.Sizeof(cacheEntry{}); size != 20 {
		t.Fatalf("computed-table entry takes %d bytes, want 20", size)
	}
	if bytes := len(m.cache) * int(unsafe.Sizeof(cacheEntry{})); bytes > 80<<10 {
		t.Fatalf("computed table: %d bytes, want at most %d", bytes, 80<<10)
	}
}

// TestCacheAutoGrowth: a chain of operations with no safe-point call
// between them grows the computed table with the arena.
func TestCacheAutoGrowth(t *testing.T) {
	m := New(64)
	for m.NumNodes() <= 1<<17 {
		m.And(randomDense(m), randomDense(m))
	}
	if m.CacheSize() < m.NumNodes() {
		t.Fatalf("auto growth: cache %d slots with %d nodes", m.CacheSize(), m.NumNodes())
	}
	if m.Stats.CacheGrowths == 0 {
		t.Fatal("auto growth: CacheGrowths not counted")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
}

// TestCacheGrowthKeepsEntries: an Ite computed before a growth is a
// cache hit after it. Var allocates a node without touching the
// computed table, so only the growth itself stands between the two
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
// on a manager pinned at 2^16 slots, leaves the manager consistent, and
// stores its own result where a repeat finds it — so the slots stored
// after a mid-recursion growth are the current ones.
func TestAndExistsAcrossGrowths(t *testing.T) {
	const n = 180
	product := func(m *Manager) Ref {
		f := modSum(m, n, 7, func(int) int { return 1 })
		g := modSum(m, n, 11, func(i int) int { return i%10 + 1 })
		return m.AndExists(f, g, m.Cube([]int{n - 3, n - 1}))
	}
	pinned := New(n)
	pinCache(pinned, 1<<16)
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
