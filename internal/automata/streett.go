// Package automata implements Section 8 of the paper: ω-automata
// (Streett acceptance, with Büchi as a special case), the product
// construction M(K, K′), and language-containment checking
// L(K) ⊆ L(K′) for a deterministic complete specification K′ by
// reduction to the CTL* fragment of Section 7. When containment fails,
// a counterexample — an ultimately periodic word accepted by K but not
// by K′ — is extracted from the fragment witness.
package automata

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/explicit"
)

// Pair is one Streett acceptance pair (U, V): a run r is accepted by the
// pair iff inf(r) ⊆ U or inf(r) ∩ V ≠ ∅.
type Pair struct {
	U, V []bool
	Name string
}

// Streett is a (possibly nondeterministic) Streett automaton over a
// finite alphabet. Trans[q][a] lists the successor states of q on
// symbol index a.
type Streett struct {
	Name     string
	Alphabet []string
	NumState int
	Init     int
	Trans    [][][]int // [state][symbol] -> successors
	Accept   []Pair
}

// NewStreett allocates an automaton with the given state count and
// alphabet and no transitions.
func NewStreett(name string, numState int, alphabet []string) *Streett {
	a := &Streett{Name: name, Alphabet: alphabet, NumState: numState}
	a.Trans = make([][][]int, numState)
	for q := range a.Trans {
		a.Trans[q] = make([][]int, len(alphabet))
	}
	return a
}

// Symbol returns the index of a named symbol.
func (a *Streett) Symbol(name string) int {
	for i, s := range a.Alphabet {
		if s == name {
			return i
		}
	}
	panic(fmt.Sprintf("automata: unknown symbol %q", name))
}

// AddTrans adds the transition q --sym--> t.
func (a *Streett) AddTrans(q int, sym string, t int) {
	s := a.Symbol(sym)
	for _, u := range a.Trans[q][s] {
		if u == t {
			return
		}
	}
	a.Trans[q][s] = append(a.Trans[q][s], t)
}

// AddPair appends an acceptance pair given as state index sets.
func (a *Streett) AddPair(name string, u, v []int) {
	us := make([]bool, a.NumState)
	vs := make([]bool, a.NumState)
	for _, q := range u {
		us[q] = true
	}
	for _, q := range v {
		vs[q] = true
	}
	a.Accept = append(a.Accept, Pair{U: us, V: vs, Name: name})
}

// IsDeterministic reports whether every (state, symbol) has at most one
// successor.
func (a *Streett) IsDeterministic() bool {
	for q := range a.Trans {
		for s := range a.Trans[q] {
			if len(a.Trans[q][s]) > 1 {
				return false
			}
		}
	}
	return true
}

// IsComplete reports whether every (state, symbol) has at least one
// successor.
func (a *Streett) IsComplete() bool {
	for q := range a.Trans {
		for s := range a.Trans[q] {
			if len(a.Trans[q][s]) == 0 {
				return false
			}
		}
	}
	return true
}

// MakeComplete adds a rejecting sink state (if needed) so that the
// automaton becomes complete without changing its language. The sink is
// rejecting because it belongs to no U and no V; if the automaton has no
// acceptance pairs, a pair (U = all old states, V = ∅) is added first so
// that runs trapped in the sink are rejected while previously accepting
// runs remain accepting.
func (a *Streett) MakeComplete() {
	if a.IsComplete() {
		return
	}
	if len(a.Accept) == 0 {
		all := make([]int, a.NumState)
		for i := range all {
			all[i] = i
		}
		a.AddPair("total", all, nil)
	}
	sink := a.NumState
	a.NumState++
	a.Trans = append(a.Trans, make([][]int, len(a.Alphabet)))
	for s := range a.Alphabet {
		a.Trans[sink][s] = []int{sink}
	}
	for q := 0; q < sink; q++ {
		for s := range a.Alphabet {
			if len(a.Trans[q][s]) == 0 {
				a.Trans[q][s] = []int{sink}
			}
		}
	}
	for i := range a.Accept {
		a.Accept[i].U = append(a.Accept[i].U, false)
		a.Accept[i].V = append(a.Accept[i].V, false)
	}
}

// FromBuchi builds the Streett automaton equivalent to a Büchi automaton
// with accepting set acc: the single pair (∅, acc) requires inf ∩ acc ≠ ∅.
func FromBuchi(name string, numState int, alphabet []string, init int, acc []int) *Streett {
	a := NewStreett(name, numState, alphabet)
	a.Init = init
	a.AddPair("buchi", nil, acc)
	return a
}

// Word is an ultimately periodic ω-word: Prefix followed by Cycle
// repeated forever. Symbols are alphabet indices.
type Word struct {
	Prefix []int
	Cycle  []int
}

// Format renders the word with symbol names.
func (w Word) Format(alphabet []string) string {
	var sb strings.Builder
	for _, s := range w.Prefix {
		sb.WriteString(alphabet[s])
		sb.WriteByte(' ')
	}
	sb.WriteString("( ")
	for _, s := range w.Cycle {
		sb.WriteString(alphabet[s])
		sb.WriteByte(' ')
	}
	sb.WriteString(")^ω")
	return sb.String()
}

// Accepts decides whether the automaton accepts the ultimately periodic
// word. It explores the product of the automaton with the lasso-shaped
// word structure and applies the standard recursive Streett emptiness
// test on its strongly connected components.
func (a *Streett) Accepts(w Word) (bool, error) {
	if len(w.Cycle) == 0 {
		return false, errors.New("automata: word must have a nonempty cycle")
	}
	total := len(w.Prefix) + len(w.Cycle)
	symAt := func(pos int) int {
		if pos < len(w.Prefix) {
			return w.Prefix[pos]
		}
		return w.Cycle[pos-len(w.Prefix)]
	}
	nextPos := func(pos int) int {
		pos++
		if pos >= total {
			pos = len(w.Prefix)
		}
		return pos
	}
	// node encoding: q*total + pos
	n := a.NumState * total
	succ := make([][]int, n)
	for q := 0; q < a.NumState; q++ {
		for pos := 0; pos < total; pos++ {
			id := q*total + pos
			for _, t := range a.Trans[q][symAt(pos)] {
				succ[id] = append(succ[id], t*total+nextPos(pos))
			}
		}
	}
	start := a.Init*total + 0
	if total == len(w.Cycle) {
		start = a.Init * total // pos 0 is the cycle start anyway
	}
	reach := make([]bool, n)
	stack := []int{start}
	reach[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range succ[v] {
			if !reach[u] {
				reach[u] = true
				stack = append(stack, u)
			}
		}
	}
	// project acceptance through node -> q
	inU := func(pair int, node int) bool { return a.Accept[pair].U[node/total] }
	inV := func(pair int, node int) bool { return a.Accept[pair].V[node/total] }

	// Recursive Streett emptiness on the reachable subgraph: an
	// accepting run exists iff some reachable nontrivial sub-SCC C
	// satisfies, for every pair, C ⊆ U or C ∩ V ≠ ∅.
	var accepting func(sub []bool) bool
	accepting = func(sub []bool) bool {
		comps := sccList(succ, sub)
		for _, comp := range comps {
			if !nontrivial(succ, comp, sub) {
				continue
			}
			// check pairs
			ok := true
			var violated []int
			for p := range a.Accept {
				hasV := false
				allU := true
				for _, v := range comp {
					if inV(p, v) {
						hasV = true
					}
					if !inU(p, v) {
						allU = false
					}
				}
				if !hasV && !allU {
					ok = false
					violated = append(violated, p)
				}
			}
			if ok {
				return true
			}
			// restrict: remove states outside U of each violated pair
			restricted := make([]bool, n)
			changed := false
			for _, v := range comp {
				keep := true
				for _, p := range violated {
					if !inU(p, v) {
						keep = false
						break
					}
				}
				if keep {
					restricted[v] = true
				} else {
					changed = true
				}
			}
			if changed && accepting(restricted) {
				return true
			}
		}
		return false
	}
	return accepting(reach), nil
}

// sccList computes the SCCs of the subgraph as explicit node lists.
func sccList(succ [][]int, sub []bool) [][]int {
	comp, ncomp := explicit.SCC(succ, sub)
	out := make([][]int, ncomp)
	for v, c := range comp {
		if c >= 0 {
			out[c] = append(out[c], v)
		}
	}
	return out
}

// nontrivial reports whether the component can sustain an infinite run:
// more than one node, or a self-loop within the subgraph.
func nontrivial(succ [][]int, comp []int, sub []bool) bool {
	if len(comp) > 1 {
		return true
	}
	v := comp[0]
	for _, u := range succ[v] {
		if u == v && sub[v] {
			return true
		}
	}
	return false
}
