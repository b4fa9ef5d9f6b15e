package kripke

import (
	"fmt"

	"repro/internal/bdd"
)

// Builder constructs a Symbolic structure from named boolean state
// variables, next-state constraints and initial-state constraints. It is
// the low-level API used by the circuit compiler and FromExplicit, and
// is convenient for hand-built models in tests and examples. (The SMV
// compiler builds its structure directly, since it picks the shape of
// the relation per model.)
type Builder struct {
	S     *Symbolic
	index map[string]int

	// clusters collects every ConstrainTrans conjunct; Finish installs
	// them as the structure's conjunctive partition.
	clusters []bdd.Ref
}

// NewBuilder creates a builder over the given state variables. Manager
// options (e.g. bdd.DisableComplementEdges) apply to the structure's
// fresh BDD manager.
func NewBuilder(names []string, opts ...bdd.Option) *Builder {
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			panic(fmt.Sprintf("kripke: duplicate state variable %q", n))
		}
		seen[n] = true
	}
	b := &Builder{S: NewSymbolic(names, opts...), index: map[string]int{}}
	for i, n := range names {
		b.index[n] = i
	}
	return b
}

// Cur returns the BDD of the current-state copy of the named variable.
func (b *Builder) Cur(name string) bdd.Ref {
	return b.S.M.Var(b.S.Vars[b.varIndex(name)].Cur)
}

// Next returns the BDD of the next-state copy of the named variable.
func (b *Builder) Next(name string) bdd.Ref {
	return b.S.M.Var(b.S.Vars[b.varIndex(name)].Next)
}

func (b *Builder) varIndex(name string) int {
	i, ok := b.index[name]
	if !ok {
		panic(fmt.Sprintf("kripke: unknown state variable %q", name))
	}
	return i
}

// ConstrainInit conjoins a constraint into the initial states.
func (b *Builder) ConstrainInit(f bdd.Ref) {
	b.S.Init = b.S.M.And(b.S.Init, f)
}

// ConstrainTrans conjoins a constraint into the transition relation.
// The conjunct is collected as a partition cluster.
func (b *Builder) ConstrainTrans(f bdd.Ref) {
	b.clusters = append(b.clusters, f)
}

// InitValue fixes the initial value of a variable.
func (b *Builder) InitValue(name string, val bool) {
	v := b.Cur(name)
	if !val {
		v = b.S.M.Not(v)
	}
	b.ConstrainInit(v)
}

// NextFunc constrains next(name) to equal the function f of the current
// state (a deterministic assignment).
func (b *Builder) NextFunc(name string, f bdd.Ref) {
	b.ConstrainTrans(b.S.M.Eq(b.Next(name), f))
}

// NextChoice constrains next(name) to be either its current value or the
// function f — the nondeterministic-delay idiom used by the
// speed-independent circuit model.
func (b *Builder) NextChoice(name string, f bdd.Ref) {
	m := b.S.M
	nx := b.Next(name)
	cur := b.Cur(name)
	b.ConstrainTrans(m.Or(m.Eq(nx, cur), m.Eq(nx, f)))
}

// NextFree leaves next(name) unconstrained (an input variable).
func (b *Builder) NextFree(name string) {}

// AddFairness registers a fairness constraint by state set.
func (b *Builder) AddFairness(name string, set bdd.Ref) {
	b.S.AddFairness(name, set)
}

// Invariant conjoins an invariant into Init and into both the source and
// target of every transition, restricting the model to states satisfying
// it.
func (b *Builder) Invariant(f bdd.Ref) {
	m := b.S.M
	b.S.Invar = m.And(b.S.Invar, f)
	b.ConstrainInit(f)
	b.ConstrainTrans(m.And(f, b.S.ToNext(f)))
}

// Finish protects the structure's BDDs, installs the conjunctive
// transition partition collected from ConstrainTrans calls, and returns
// the structure. The monolithic relation stays unmaterialized
// (Symbolic.Trans builds it on first demand) — on large models the
// conjunction can be exponentially bigger than any cluster, and the
// partitioned image computation never touches it. The builder must not
// be used afterwards.
func (b *Builder) Finish() *Symbolic {
	m := b.S.M
	b.S.SetClusters(b.clusters)
	m.Protect(b.S.Init)
	m.Protect(b.S.Invar)
	return b.S
}

// IsTotal reports whether every state (satisfying the invariant) has at
// least one successor. CTL semantics assume a total transition relation;
// models violating this produce vacuous EG/EX results on deadlocked
// states. The underlying ∃v′.Trans is computed once and shared with
// DeadlockStates.
func (s *Symbolic) IsTotal() bool {
	return s.M.Implies(s.Invar, s.hasSuccessors())
}

// DeadlockStates returns the states with no successor.
func (s *Symbolic) DeadlockStates() bdd.Ref {
	return s.M.And(s.Invar, s.M.Not(s.hasSuccessors()))
}
