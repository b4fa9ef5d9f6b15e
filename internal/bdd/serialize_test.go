package bdd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// saveRoots writes refs as unnamed roots and returns the stream.
func saveRoots(t *testing.T, m *Manager, refs ...Ref) []byte {
	t.Helper()
	roots := make([]NamedRoot, len(refs))
	for i, r := range refs {
		roots[i] = NamedRoot{Ref: r}
	}
	var buf bytes.Buffer
	if err := m.SaveNamed(&buf, roots); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadRoots reads a stream without adopting its order and returns the
// roots' refs.
func loadRoots(t *testing.T, m *Manager, data []byte) []Ref {
	t.Helper()
	named, err := m.LoadNamed(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]Ref, len(named))
	for i, nr := range named {
		refs[i] = nr.Ref
	}
	return refs
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	const n = 5
	for trial := 0; trial < 30; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		g, ref2 := randPair(r, m, n, 4)
		// load into a fresh manager
		m2 := New(n)
		roots := loadRoots(t, m2, saveRoots(t, m, f, g))
		if len(roots) != 2 {
			t.Fatalf("got %d roots", len(roots))
		}
		checkAgainstTT(t, m2, roots[0], ref, "loaded f")
		checkAgainstTT(t, m2, roots[1], ref2, "loaded g")
	}
}

func TestSaveLoadSameManagerCanonical(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	roots := loadRoots(t, m, saveRoots(t, m, f))
	if roots[0] != f {
		t.Fatal("loading into the same manager must be the identity")
	}
}

func TestSaveLoadAcrossDifferentOrder(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	const n = 5
	m := New(n)
	f, ref := randPair(r, m, n, 4)
	data := saveRoots(t, m, f)
	// target manager with a scrambled order
	m2 := New(n)
	order := r.Perm(n)
	m2.Reorder(order, nil)
	roots := loadRoots(t, m2, data)
	checkAgainstTT(t, m2, roots[0], ref, "loaded under different order")
}

func TestSaveLoadTerminals(t *testing.T) {
	m := New(2)
	roots := loadRoots(t, m, saveRoots(t, m, True, False))
	if roots[0] != True || roots[1] != False {
		t.Fatal("terminal round trip failed")
	}
}

// representations lists both node representations, for tests that save
// from and load into each.
var representations = []struct {
	name string
	opts []Option
}{
	{"comp", nil},
	{"nocomp", []Option{DisableComplementEdges()}},
}

// TestSaveLoadComplementCrossMode is the round-trip property over
// complemented refs: random functions and their negations are saved
// from a manager in either representation and loaded into a manager in
// either representation. All four pairings must reproduce the exact
// function, and a saved f/¬f pair must load as a complement pair.
func TestSaveLoadComplementCrossMode(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	const n = 5
	for _, src := range representations {
		for _, dst := range representations {
			t.Run(src.name+"_to_"+dst.name, func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					m := New(n, src.opts...)
					f, ref := randPair(r, m, n, 4)
					m2 := New(n, dst.opts...)
					roots := loadRoots(t, m2, saveRoots(t, m, f, m.Not(f)))
					checkAgainstTT(t, m2, roots[0], ref, "loaded f")
					checkAgainstTT(t, m2, roots[1], ref.not(), "loaded ¬f")
					if roots[1] != m2.Not(roots[0]) {
						t.Fatal("loaded pair is not a canonical complement pair")
					}
				}
			})
		}
	}
}

func TestLoadErrors(t *testing.T) {
	m := New(2)
	// bad magic
	if _, err := m.LoadNamed(strings.NewReader("NOTABDD"), false); err == nil {
		t.Fatal("bad magic must fail")
	}
	// truncated
	data := saveRoots(t, m, m.And(m.Var(0), m.Var(1)))
	if _, err := m.LoadNamed(bytes.NewReader(data[:len(data)-3]), false); err == nil {
		t.Fatal("truncated input must fail")
	}
	// too many variables for the target manager
	big := New(8)
	if _, err := m.LoadNamed(bytes.NewReader(saveRoots(t, big, big.Var(7))), false); err == nil {
		t.Fatal("variable overflow must fail")
	}
}

// TestLoadNamedBackCompat: streams of the retired v1 and v2 formats are
// refused with the bad-magic error; v3 is the only format read.
func TestLoadNamedBackCompat(t *testing.T) {
	m := New(4)
	body := saveRoots(t, m, m.Xor(m.Var(0), m.Var(1)))[len(serialMagic):]
	for _, magic := range []string{"GOBDD1\n", "GOBDD2\n"} {
		stream := append([]byte(magic), body...)
		if _, err := New(4).LoadNamed(bytes.NewReader(stream), false); !errors.Is(err, errBadMagic) {
			t.Errorf("%q stream: got %v, want the bad-magic error", magic[:6], err)
		}
	}
}

// TestSaveNamedLoadNamedRoundTrip is the named round-trip property:
// random named functions saved from a manager in either complement-edge
// mode load back into a manager in either mode with names and functions
// intact, in record order.
func TestSaveNamedLoadNamedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const n = 5
	for _, src := range representations {
		for _, dst := range representations {
			t.Run(src.name+"_to_"+dst.name, func(t *testing.T) {
				for trial := 0; trial < 15; trial++ {
					m := New(n, src.opts...)
					f, ref := randPair(r, m, n, 4)
					g, ref2 := randPair(r, m, n, 4)
					var buf bytes.Buffer
					err := m.SaveNamed(&buf, []NamedRoot{
						{Name: "reach", Ref: f},
						{Name: "fair", Ref: g},
						{Name: "", Ref: m.Not(f)},
					})
					if err != nil {
						t.Fatal(err)
					}
					m2 := New(n, dst.opts...)
					roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), false)
					if err != nil {
						t.Fatal(err)
					}
					if len(roots) != 3 {
						t.Fatalf("got %d roots", len(roots))
					}
					if roots[0].Name != "reach" || roots[1].Name != "fair" || roots[2].Name != "" {
						t.Fatalf("names not preserved: %q %q %q", roots[0].Name, roots[1].Name, roots[2].Name)
					}
					checkAgainstTT(t, m2, roots[0].Ref, ref, "named reach")
					checkAgainstTT(t, m2, roots[1].Ref, ref2, "named fair")
					checkAgainstTT(t, m2, roots[2].Ref, ref.not(), "named ¬reach")
					if roots[2].Ref != m2.Not(roots[0].Ref) {
						t.Fatal("saved complement pair did not load canonical")
					}
				}
			})
		}
	}
}

// TestLoadNamedAdoptOrder saves from a manager whose order was scrambled
// (standing in for a sifted order) and loads with adoptOrder: the target
// manager must come out in the saved order and the functions must still
// be correct.
func TestLoadNamedAdoptOrder(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	const n = 6
	for trial := 0; trial < 10; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		m.Protect(f)
		order := r.Perm(n)
		rs := m.Reorder(order, []Ref{f})
		f = rs[0]
		var buf bytes.Buffer
		if err := m.SaveNamed(&buf, []NamedRoot{{Name: "reach", Ref: f}}); err != nil {
			t.Fatal(err)
		}
		m2 := New(n)
		roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m2.Order(), m.Order()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order not adopted: got %v want %v", got, want)
			}
		}
		checkAgainstTT(t, m2, roots[0].Ref, ref, "adopted-order load")
		if m2.Size(roots[0].Ref) != m.Size(f) {
			t.Fatalf("adopted order gives size %d, source had %d", m2.Size(roots[0].Ref), m.Size(f))
		}
	}
}

// TestLoadNamedAdoptOrderPostSift exercises adoption against an order
// produced by the real sifting pass rather than a synthetic permutation.
func TestLoadNamedAdoptOrderPostSift(t *testing.T) {
	const n = 8
	m := New(n)
	// An order-sensitive function: interleaved comparator chain.
	f := True
	for i := 0; i+1 < n; i += 2 {
		f = m.And(f, m.Xor(m.Var(i), m.Var(i+1)))
	}
	m.Protect(f)
	rs := m.Sift([]Ref{f})
	f = rs[0]
	var buf bytes.Buffer
	if err := m.SaveNamed(&buf, []NamedRoot{{Name: "fair", Ref: f}}); err != nil {
		t.Fatal(err)
	}
	m2 := New(n)
	roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m2.Order(), m.Order()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sifted order not adopted: got %v want %v", got, want)
		}
	}
	if m2.Size(roots[0].Ref) != m.Size(f) {
		t.Fatalf("post-sift sizes differ: got %d want %d", m2.Size(roots[0].Ref), m.Size(f))
	}
}

// TestSaveNamedRejectsHugeName: names beyond the record bound are a save
// error, not a file that can never be read back.
func TestSaveNamedRejectsHugeName(t *testing.T) {
	m := New(2)
	var buf bytes.Buffer
	err := m.SaveNamed(&buf, []NamedRoot{{Name: strings.Repeat("x", maxSavedNameLen+1), Ref: True}})
	if err == nil {
		t.Fatal("oversized name saved without error")
	}
}

// TestAdoptOrderErrors: adoption must reject files over a different
// variable set and non-permutation order records.
func TestAdoptOrderErrors(t *testing.T) {
	t.Run("var count mismatch", func(t *testing.T) {
		m := New(4)
		var buf bytes.Buffer
		if err := m.SaveNamed(&buf, []NamedRoot{{Name: "r", Ref: m.Var(0)}}); err != nil {
			t.Fatal(err)
		}
		m2 := New(6)
		if _, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true); err == nil {
			t.Fatal("adopting a 4-var order into a 6-var manager must fail")
		}
		// Without adoption the same file loads fine (the manager is wider).
		if _, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), false); err != nil {
			t.Fatalf("plain load of narrower file: %v", err)
		}
	})
	t.Run("non-permutation order", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString(serialMagic)
		u32 := func(xs ...uint32) {
			for _, x := range xs {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], x)
				buf.Write(b[:])
			}
		}
		u32(2)    // nvars
		u32(0, 0) // order with a duplicate: not a permutation
		u32(0)    // node count
		u32(0)    // root count
		m := New(2)
		if _, err := m.LoadNamed(bytes.NewReader(buf.Bytes()), true); err == nil {
			t.Fatal("duplicate order entry adopted without error")
		}
		// Without adoption the order is only used to map levels; the file
		// (no nodes, no roots) still loads.
		if _, err := m.LoadNamed(bytes.NewReader(buf.Bytes()), false); err != nil {
			t.Fatalf("plain load of duplicate-order file: %v", err)
		}
	})
}
