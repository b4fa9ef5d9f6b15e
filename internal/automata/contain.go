package automata

import (
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/ctlstar"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Product is the state-transition system M(K, K′) of Section 8: states
// are pairs (s, s′), with a transition when some common input symbol
// drives both automata. It is materialized explicitly (reachable part)
// and encoded symbolically for the fragment checker; atoms "U<i>",
// "V<i>" (implementation pairs) and "Us<j>", "Vs<j>" (specification
// pairs) label the product states.
type Product struct {
	K, Kp *Streett

	Sym    *kripke.Symbolic
	States []ProdState      // index -> pair
	Index  map[[2]int]int   // pair -> index
	Syms   map[[2]int][]int // edge (by product indices) -> enabling symbols
	bits   int
}

// ProdState is one product state.
type ProdState struct{ S, Sp int }

// NewProduct builds the reachable product of K and K′ (same alphabet).
func NewProduct(k, kp *Streett) (*Product, error) {
	if len(k.Alphabet) != len(kp.Alphabet) {
		return nil, errors.New("automata: alphabet size mismatch")
	}
	for i := range k.Alphabet {
		if k.Alphabet[i] != kp.Alphabet[i] {
			return nil, errors.New("automata: alphabet mismatch")
		}
	}
	p := &Product{K: k, Kp: kp, Index: map[[2]int]int{}, Syms: map[[2]int][]int{}}
	add := func(s, sp int) int {
		key := [2]int{s, sp}
		if i, ok := p.Index[key]; ok {
			return i
		}
		i := len(p.States)
		p.Index[key] = i
		p.States = append(p.States, ProdState{s, sp})
		return i
	}
	start := add(k.Init, kp.Init)
	type edge struct{ u, v int }
	var edges []edge
	queue := []int{start}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		ps := p.States[u]
		for a := range k.Alphabet {
			for _, t := range k.Trans[ps.S][a] {
				for _, tp := range kp.Trans[ps.Sp][a] {
					before := len(p.States)
					v := add(t, tp)
					if v == before {
						queue = append(queue, v)
					}
					key := [2]int{u, v}
					if len(p.Syms[key]) == 0 {
						edges = append(edges, edge{u, v})
					}
					p.Syms[key] = appendUnique(p.Syms[key], a)
				}
			}
		}
	}

	e := kripke.NewExplicit(len(p.States))
	for _, ed := range edges {
		e.AddEdge(ed.u, ed.v)
	}
	e.AddInit(start)
	for i, ps := range p.States {
		for pi, pair := range k.Accept {
			if pair.U[ps.S] {
				e.Label(i, fmt.Sprintf("U%d", pi))
			}
			if pair.V[ps.S] {
				e.Label(i, fmt.Sprintf("V%d", pi))
			}
		}
		for pj, pair := range kp.Accept {
			if pair.U[ps.Sp] {
				e.Label(i, fmt.Sprintf("Us%d", pj))
			}
			if pair.V[ps.Sp] {
				e.Label(i, fmt.Sprintf("Vs%d", pj))
			}
		}
	}
	e.MakeTotal() // complete automata make this a no-op
	p.Sym = kripke.FromExplicit(e)
	p.bits = len(p.Sym.Vars)

	// Register acceptance atoms that label no state at all (empty U or V
	// sets) so the fragment formulas still resolve.
	names := map[string]bool{}
	for _, n := range e.AtomNames() {
		names[n] = true
	}
	for pi := range k.Accept {
		for _, n := range []string{fmt.Sprintf("U%d", pi), fmt.Sprintf("V%d", pi)} {
			if !names[n] {
				p.Sym.RegisterAtom(n, bdd.False)
			}
		}
	}
	for pj := range kp.Accept {
		for _, n := range []string{fmt.Sprintf("Us%d", pj), fmt.Sprintf("Vs%d", pj)} {
			if !names[n] {
				p.Sym.RegisterAtom(n, bdd.False)
			}
		}
	}
	return p, nil
}

func appendUnique(xs []int, x int) []int {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// acceptanceViolation builds, for specification pair j, the Section 8
// fragment formula expressing "the run satisfies K's acceptance and
// violates pair j of K′'s":
//
//	E ⋀_{(U,V)∈F} (FG U ∨ GF V)  ∧  GF ¬U′_j  ∧  FG ¬V′_j
func (p *Product) acceptanceViolation(j int) ctlstar.Formula {
	var f ctlstar.Formula
	for pi := range p.K.Accept {
		f = append(f, ctlstar.Clause{
			ctlstar.FGTerm(ctl.Atom(fmt.Sprintf("U%d", pi))),
			ctlstar.GFTerm(ctl.Atom(fmt.Sprintf("V%d", pi))),
		})
	}
	f = append(f,
		ctlstar.Clause{ctlstar.GFTerm(ctl.Not(ctl.Atom(fmt.Sprintf("Us%d", j))))},
		ctlstar.Clause{ctlstar.FGTerm(ctl.Not(ctl.Atom(fmt.Sprintf("Vs%d", j))))},
	)
	return f
}

// ContainResult reports the outcome of a containment check.
type ContainResult struct {
	Contained bool
	// On failure: the violated specification pair, the product trace,
	// and the extracted counterexample word (accepted by K, rejected by
	// K′).
	ViolatedPair int
	Trace        *core.Trace
	Word         Word
}

// CheckContainment decides L(K) ⊆ L(K′). K may be nondeterministic; K′
// must be deterministic and complete (the equivalence of Section 8 does
// not hold otherwise). Both automata must be complete.
func CheckContainment(k, kp *Streett) (*ContainResult, error) {
	if !kp.IsDeterministic() {
		return nil, errors.New("automata: specification automaton must be deterministic")
	}
	if !k.IsComplete() || !kp.IsComplete() {
		return nil, errors.New("automata: both automata must be complete (use MakeComplete)")
	}
	p, err := NewProduct(k, kp)
	if err != nil {
		return nil, err
	}
	sc := ctlstar.New(mc.New(p.Sym))
	init := kripke.IndexState(0, p.bits) // product init has index 0

	npairs := len(kp.Accept)
	if npairs == 0 {
		// With no spec pairs every run of K′ accepts, so containment
		// reduces to completeness of K′, which we required.
		return &ContainResult{Contained: true}, nil
	}
	for j := 0; j < npairs; j++ {
		f := p.acceptanceViolation(j)
		set, err := sc.Check(f)
		if err != nil {
			return nil, err
		}
		if !p.Sym.Holds(set, init) {
			continue
		}
		tr, err := sc.Witness(f, init)
		if err != nil {
			return nil, fmt.Errorf("automata: witness extraction: %w", err)
		}
		w, err := p.TraceWord(tr)
		if err != nil {
			return nil, err
		}
		return &ContainResult{Contained: false, ViolatedPair: j, Trace: tr, Word: w}, nil
	}
	return &ContainResult{Contained: true}, nil
}

// TraceWord converts a product lasso trace into an ultimately periodic
// word by choosing, for every edge, a symbol enabling it. The cycle of
// the word corresponds to the cycle of the trace.
func (p *Product) TraceWord(tr *core.Trace) (Word, error) {
	if !tr.IsLasso() {
		return Word{}, errors.New("automata: trace must be a lasso")
	}
	idx := func(st kripke.State) int { return kripke.StateIndex(st) }
	var w Word
	pick := func(u, v int) (int, error) {
		syms := p.Syms[[2]int{u, v}]
		if len(syms) == 0 {
			return 0, fmt.Errorf("automata: no symbol for product edge %d -> %d", u, v)
		}
		return syms[0], nil
	}
	for i := 1; i < len(tr.States); i++ {
		s, err := pick(idx(tr.States[i-1]), idx(tr.States[i]))
		if err != nil {
			return Word{}, err
		}
		if i <= tr.CycleStart {
			w.Prefix = append(w.Prefix, s)
		} else {
			w.Cycle = append(w.Cycle, s)
		}
	}
	// closing edge: last state back to cycle start
	s, err := pick(idx(tr.Last()), idx(tr.States[tr.CycleStart]))
	if err != nil {
		return Word{}, err
	}
	w.Cycle = append(w.Cycle, s)
	return w, nil
}
