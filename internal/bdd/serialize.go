package bdd

// Serialization of BDDs in a compact binary format, so that computed
// reachable-state and fair-state sets can be checkpointed and shared
// between runs (smvd's warm-start records). A file ("GOBDD3\n") holds
// the variable order, the node triples of the roots' reachable subgraph
// in topological order, and the named roots (length-prefixed UTF-8 name
// plus root edge). The node table holds plain nodes only (table index 0
// is the terminal False) and every edge and root is encoded as
// (tableIndex << 1) | complementBit, decoded through Not on load — which
// works whether the target manager uses complement edges or the
// structural representation. Loading replays mk() so the result is
// canonical in the target manager even if its arena layout differs.
//
// Because the saved variable order travels with the file, a reader can
// also adopt it — reordering the target manager to the saved (sifted)
// order before decoding — so a restarted process pays the
// dynamic-reordering work of a model once, ever.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const serialMagic = "GOBDD3\n"

// errBadMagic rejects a stream that does not start with serialMagic,
// including files of the retired v1 and v2 formats.
var errBadMagic = errors.New("bdd: bad magic (not a saved BDD)")

// maxSavedNameLen bounds the name records of a file; anything longer is
// a corrupt record, not a legitimate root name.
const maxSavedNameLen = 1 << 12

// NamedRoot pairs a root BDD with a symbolic name, for warm-start
// records where the loader must know which root is which (e.g. the
// reachable-state set vs. the fair-state set of a model).
type NamedRoot struct {
	Name string
	Ref  Ref
}

// SaveNamed writes the named roots and the manager's variable order to
// w.
func (m *Manager) SaveNamed(w io.Writer, roots []NamedRoot) error {
	// Topological order over plain refs: children before parents. Table
	// index 0 is the terminal; stored nodes start at 1.
	index := map[Ref]uint32{0: 0}
	var order []Ref
	var visit func(Ref)
	visit = func(f Ref) {
		f &^= compBit
		if _, ok := index[f]; ok {
			return
		}
		n := &m.nodes[f]
		visit(n.low)
		visit(n.high)
		index[f] = uint32(len(order) + 1)
		order = append(order, f)
	}
	for _, r := range roots {
		if len(r.Name) > maxSavedNameLen {
			return fmt.Errorf("bdd: root name %q too long to save", r.Name[:32]+"...")
		}
		m.checkRef(r.Ref)
		visit(r.Ref)
	}
	enc := func(f Ref) uint32 {
		e := index[f&^compBit] << 1
		if f&compBit != 0 {
			e |= 1
		}
		return e
	}

	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so the individual writes' errors are dropped.
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(serialMagic)
	writeU32To(bw, uint32(m.NumVars()))
	for _, v := range m.level2var {
		writeU32To(bw, uint32(v))
	}
	writeU32To(bw, uint32(len(order)))
	for _, f := range order {
		n := &m.nodes[f]
		writeU32To(bw, n.lvl&^markBit)
		writeU32To(bw, enc(n.low))
		writeU32To(bw, enc(n.high))
	}
	writeU32To(bw, uint32(len(roots)))
	for _, r := range roots {
		writeU32To(bw, uint32(len(r.Name)))
		_, _ = bw.WriteString(r.Name)
		writeU32To(bw, enc(r.Ref))
	}
	return bw.Flush()
}

func writeU32To(bw *bufio.Writer, x uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], x)
	_, _ = bw.Write(buf[:]) // kept by bw for Flush
}

// LoadNamed reads a file written by SaveNamed into the manager and
// returns its roots with their names, in record order. The manager must
// have at least as many variables as the saved order; the saved levels
// are interpreted through the *saved* order, i.e. each function is
// reconstructed over the same variable indices it was built over
// (levels follow the target manager's current order). When adoptOrder
// is true the manager is first reordered to the saved variable order —
// the warm-start path: the sifted order computed by a previous process
// is restored instead of being re-derived by dynamic reordering.
// Adoption requires the saved order to cover exactly the manager's
// variables.
func (m *Manager) LoadNamed(r io.Reader, adoptOrder bool) ([]NamedRoot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(serialMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != serialMagic {
		return nil, errBadMagic
	}

	nvars, err := readU32From(br)
	if err != nil {
		return nil, err
	}
	if int(nvars) > m.NumVars() {
		return nil, fmt.Errorf("bdd: saved BDD uses %d variables, manager has %d", nvars, m.NumVars())
	}
	savedLevel2Var := make([]int, nvars)
	for i := range savedLevel2Var {
		v, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		if int(v) >= m.NumVars() {
			return nil, fmt.Errorf("bdd: saved variable %d out of range", v)
		}
		savedLevel2Var[i] = int(v)
	}
	if adoptOrder {
		if err := m.adoptSavedOrder(savedLevel2Var); err != nil {
			return nil, err
		}
	}

	nnodes, err := readU32From(br)
	if err != nil {
		return nil, err
	}
	// Grown incrementally: a corrupt count must fail at the first short
	// read, not preallocate gigabytes.
	table := make([]Ref, 1, 1+clampPrealloc(nnodes))
	table[0] = False
	// dec resolves a sign-encoded edge against the already-built prefix.
	dec := func(e uint32) (Ref, bool) {
		if e>>1 >= uint32(len(table)) {
			return 0, false
		}
		f := table[e>>1]
		if e&1 != 0 {
			f = m.Not(f)
		}
		return f, true
	}
	for i := uint32(0); i < nnodes; i++ {
		lvl, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		lowEnc, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		highEnc, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		if lvl >= nvars {
			return nil, errors.New("bdd: corrupt node record")
		}
		low, okLow := dec(lowEnc)
		high, okHigh := dec(highEnc)
		if !okLow || !okHigh {
			return nil, errors.New("bdd: corrupt edge record")
		}
		// Rebuild through ITE so a different variable order in the
		// target manager still yields the correct (canonical) function.
		table = append(table, m.ite3(m.Var(savedLevel2Var[lvl]), high, low))
	}

	nroots, err := readU32From(br)
	if err != nil {
		return nil, err
	}
	roots := make([]NamedRoot, 0, clampPrealloc(nroots))
	for i := uint32(0); i < nroots; i++ {
		nameLen, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		if nameLen > maxSavedNameLen {
			return nil, errors.New("bdd: corrupt name record")
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		e, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		f, ok := dec(e)
		if !ok {
			return nil, errors.New("bdd: corrupt root record")
		}
		roots = append(roots, NamedRoot{Name: string(name), Ref: f})
	}
	return roots, nil
}

// adoptSavedOrder reorders the manager to the saved level-to-variable
// map. It refuses partial orders: adoption only makes sense when the
// file was written by a manager over the same variable set.
func (m *Manager) adoptSavedOrder(savedLevel2Var []int) error {
	if len(savedLevel2Var) != m.NumVars() {
		return fmt.Errorf("bdd: cannot adopt saved order over %d variables into a manager with %d",
			len(savedLevel2Var), m.NumVars())
	}
	seen := make([]bool, len(savedLevel2Var))
	for _, v := range savedLevel2Var {
		if v < 0 || v >= len(seen) || seen[v] {
			return errors.New("bdd: saved order is not a permutation")
		}
		seen[v] = true
	}
	m.Reorder(savedLevel2Var, nil)
	return nil
}

func readU32From(br *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// clampPrealloc bounds slice preallocation from untrusted counts; the
// slices grow past it by appending, after the stream has actually
// delivered that many records.
func clampPrealloc(n uint32) int {
	const maxPrealloc = 1 << 16
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}
