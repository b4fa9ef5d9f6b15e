package bdd

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// golden saves a nontrivial function family — a named pair f/¬f (so one
// root is complemented) and an unnamed root sharing f's subgraph — from
// a manager with the given options, and returns the raw stream.
func golden(t testing.TB, opts ...Option) []byte {
	t.Helper()
	m := New(4, opts...)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	err := m.SaveNamed(&buf, []NamedRoot{
		{Name: "reach", Ref: f},
		{Name: "fair", Ref: m.Not(f)},
		{Name: "", Ref: m.Or(m.Var(2), f)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldens are the streams the sweeps mutate: one from each node
// representation.
func goldens(t *testing.T) []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		{"v3", golden(t)},
		{"nocomp", golden(t, DisableComplementEdges())},
	}
}

// layout locates the records of a valid stream: the node count, the
// first node triple, the root count, and each root's name-length and
// edge words.
type layout struct {
	count, nodes, nnodes, rootCount int
	nameLens, rootEdges             []int
}

func parseLayout(data []byte) layout {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(data[off:])) }
	var l layout
	l.count = len(serialMagic) + 4 + 4*u32(len(serialMagic))
	l.nnodes = u32(l.count)
	l.nodes = l.count + 4
	l.rootCount = l.nodes + 12*l.nnodes
	off := l.rootCount + 4
	for i := 0; i < u32(l.rootCount); i++ {
		l.nameLens = append(l.nameLens, off)
		off += 4 + u32(off)
		l.rootEdges = append(l.rootEdges, off)
		off += 4
	}
	return l
}

// u32at returns a copy of data with the little-endian word at off set to v.
func u32at(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// loadNoPanic runs LoadNamed and converts any panic into a test failure
// that names the mutated input, so one bad offset doesn't mask the rest
// of the sweep.
func loadNoPanic(t *testing.T, m *Manager, data []byte, what string) (roots []Ref, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: LoadNamed panicked: %v", what, r)
			err = nil
			roots = nil
		}
	}()
	named, err := m.LoadNamed(bytes.NewReader(data), false)
	for _, nr := range named {
		roots = append(roots, nr.Ref)
	}
	return roots, err
}

// TestLoadTruncatedEveryPrefix feeds every strict prefix of a valid
// stream to LoadNamed: each must return an error — there is no prefix of
// a saved BDD that is itself a complete file — and none may panic.
func TestLoadTruncatedEveryPrefix(t *testing.T) {
	for _, tc := range goldens(t) {
		t.Run(tc.name, func(t *testing.T) {
			for cut := 0; cut < len(tc.data); cut++ {
				m := New(4)
				if _, err := loadNoPanic(t, m, tc.data[:cut], "prefix"); err == nil {
					t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(tc.data))
				}
			}
		})
	}
}

// TestLoadBitFlipSweep mutates every byte of the golden streams (each
// of the 8 bit flips, one at a time). LoadNamed may reject the mutant or
// may accept it — a flipped sign bit, say, decodes to the complement,
// which is a perfectly valid file — but it must never panic, and any
// roots it does return must be structurally sound in the target
// manager.
func TestLoadBitFlipSweep(t *testing.T) {
	for _, tc := range goldens(t) {
		t.Run(tc.name, func(t *testing.T) {
			for pos := 0; pos < len(tc.data); pos++ {
				for bit := 0; bit < 8; bit++ {
					mutant := append([]byte(nil), tc.data...)
					mutant[pos] ^= 1 << bit
					m := New(4)
					roots, err := loadNoPanic(t, m, mutant, "bit flip")
					if err != nil {
						continue
					}
					for _, r := range roots {
						// Size walks the DAG from r; a dangling or
						// out-of-arena ref would be caught here.
						m.checkRef(r)
						m.Size(r)
						if got := m.Not(m.Not(r)); got != r {
							t.Fatalf("pos %d bit %d: loaded root not involutive under Not", pos, bit)
						}
					}
				}
			}
		})
	}
}

// TestLoadCorruptRecords exercises each explicit rejection path of the
// reader with targeted corruptions of a known-good stream, checking the
// error (not a panic, not a silent success) surfaces.
func TestLoadCorruptRecords(t *testing.T) {
	base := golden(t)
	l := parseLayout(base)
	const (
		hdr      = len(serialMagic)
		offNvars = hdr     // nvars (4)
		offOrder = hdr + 4 // 4 vars × 4 bytes
	)
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong magic", append([]byte("NOTBDD!"), base[hdr:]...)},
		{"v1 magic", append([]byte("GOBDD1\n"), base[hdr:]...)},
		{"v2 magic", append([]byte("GOBDD2\n"), base[hdr:]...)},
		{"empty", nil},
		{"magic only", base[:hdr]},
		{"variable overflow", u32at(base, offNvars, 99)},
		{"order entry out of range", u32at(base, offOrder, 7)},
		{"node level out of range", u32at(base, l.nodes, 12)},
		{"forward edge reference", u32at(base, l.nodes+4, 500<<1)},
		{"huge node count, truncated body", u32at(base, l.count, 0xFFFFFFF0)},
		{"all-ones node count", u32at(base, l.count, 0xFFFFFFFF)},
		{"huge root count, truncated body", u32at(base, l.rootCount, 0xFFFFFFF0)},
		{"root index out of range", u32at(base, len(base)-4, 500<<1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(4)
			if _, err := loadNoPanic(t, m, tc.data, tc.name); err == nil {
				t.Fatalf("corrupt stream loaded without error")
			}
		})
	}
}

// TestLoadV3CorruptRecords exercises the rejection paths specific to
// the named-root trailer: name lengths beyond the record bound, names
// longer than the remaining stream, and out-of-range root edges.
func TestLoadV3CorruptRecords(t *testing.T) {
	base := golden(t)
	l := parseLayout(base)
	cases := []struct {
		name string
		data []byte
	}{
		{"huge name length", u32at(base, l.nameLens[0], 0xFFFFFFF0)},
		{"name length over bound", u32at(base, l.nameLens[0], maxSavedNameLen+1)},
		{"name longer than stream", u32at(base, l.nameLens[0], maxSavedNameLen)},
		{"root edge out of range", u32at(base, l.rootEdges[0], 500<<1)},
		{"huge root count, truncated trailer", u32at(base, l.rootCount, 0xFFFFFFF0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(4)
			if _, err := loadNoPanic(t, m, tc.data, tc.name); err == nil {
				t.Fatalf("corrupt stream loaded without error")
			}
		})
	}
}

// TestLoadSignBitCorruption flips exactly the complement bit of every
// edge and root record in a stream: each mutant is a VALID file
// denoting different functions, so LoadNamed must succeed and the loaded
// roots must still be canonical (involutive complements, consistent
// with a fresh evaluation).
func TestLoadSignBitCorruption(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	base := saveRoots(t, m, f, m.Not(f))
	// Edge fields are the 2nd and 3rd word of each node triple, and the
	// edge word of every root record.
	l := parseLayout(base)
	var edgeOffsets []int
	for i := 0; i < l.nnodes; i++ {
		off := l.nodes + i*12
		edgeOffsets = append(edgeOffsets, off+4, off+8)
	}
	edgeOffsets = append(edgeOffsets, l.rootEdges...)
	for _, off := range edgeOffsets {
		mutant := append([]byte(nil), base...)
		mutant[off] ^= 1 // complement bit of the little-endian word
		m2 := New(4)
		roots, err := loadNoPanic(t, m2, mutant, "sign flip")
		if err != nil {
			t.Fatalf("offset %d: sign-flipped stream must stay loadable: %v", off, err)
		}
		if len(roots) != 2 {
			t.Fatalf("offset %d: got %d roots", off, len(roots))
		}
		for _, r := range roots {
			m2.checkRef(r)
			if got := m2.Not(m2.Not(r)); got != r {
				t.Fatalf("offset %d: root not involutive under Not", off)
			}
		}
	}
}

// FuzzLoadNamed feeds arbitrary bytes to the reader, with order adoption
// on and off, into a manager of each representation. The reader takes
// untrusted disk bytes (smv -cache-dir, smvd warm-start records), so it
// must never panic, and a stream it accepts must leave the manager
// sound: every root a live ref of the target representation and
// CheckInvariants clean.
func FuzzLoadNamed(f *testing.F) {
	for _, rep := range representations {
		data := golden(f, rep.opts...)
		f.Add(data, false)
		f.Add(data, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, adopt bool) {
		for _, rep := range representations {
			m := New(4, rep.opts...)
			roots, err := m.LoadNamed(bytes.NewReader(data), adopt)
			if err != nil {
				continue
			}
			for _, r := range roots {
				checkLiveRef(t, m, r.Ref)
			}
			if err := CheckInvariants(m); err != nil {
				t.Fatalf("%s: invariants after load: %v", rep.name, err)
			}
		}
	})
}

// checkLiveRef fails unless r is a ref of m: inside the arena, not on
// the free list, and signed only as m's representation allows.
func checkLiveRef(t *testing.T, m *Manager, r Ref) {
	t.Helper()
	i := uint32(r &^ compBit)
	if int(i) >= len(m.nodes) {
		t.Fatalf("root %d outside the arena of %d nodes", r, len(m.nodes))
	}
	for f := m.free; f != 0; f = m.nodes[f].next {
		if f == i {
			t.Fatalf("root %d is a freed node", r)
		}
	}
	if m.noComp && i != 0 && r&compBit != 0 {
		t.Fatalf("root %d carries a complement bit in a no-complement manager", r)
	}
}
