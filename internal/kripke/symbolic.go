// Package kripke provides the state-transition models the checker runs
// on: symbolic structures whose transition relation R(v, v′) and state
// sets are BDDs (Section 4 of the paper), explicit structures for the
// baseline checker and for cross-validation, and bridges between the
// two representations.
package kripke

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/ctl"
)

// StateVar is one boolean state variable with its current-state and
// next-state BDD variable indices. Current and next copies are
// interleaved in the BDD order (cur at level 2i, next at 2i+1), the
// standard arrangement for image computation.
type StateVar struct {
	Name string
	Cur  int
	Next int
}

// Symbolic is a labeled state-transition graph M = (AP, S, L, N, S0)
// represented with BDDs: states are assignments to the boolean state
// variables, N is the BDD Trans over current and next variables, and S0
// is the BDD Init over current variables.
type Symbolic struct {
	M    *bdd.Manager
	Vars []StateVar

	Init bdd.Ref // S0(v)

	// trans is the monolithic R(v, v′), materialized lazily through
	// Trans() when the structure carries a conjunctive partition: on
	// large models the conjunction of the clusters can be exponentially
	// bigger than any factor, and the partitioned image computation
	// never needs it.
	trans      bdd.Ref
	transValid bool

	// Fair are the fairness-constraint state sets H = {h_1, ..., h_n}
	// (Section 5); FairNames are their display names.
	Fair      []bdd.Ref
	FairNames []string

	// Invar restricts the state space (conjoined into Trans on both
	// sides and into Init by the builder); kept for reporting.
	Invar bdd.Ref

	atoms    map[string]bdd.Ref
	eqAtoms  map[string]func(value string) (bdd.Ref, error)
	curCube  bdd.Ref
	nextCube bdd.Ref
	toNext   *bdd.Permutation
	toCur    *bdd.Permutation

	part     *Partition // optional conjunctive transition partition
	partOff  bool       // EnablePartition(false): keep it but bypass it
	disj     *Disjunct  // optional disjunctive transition partition
	disjOn   bool       // EnableDisjunct(true): use the disjunctive image
	relStats RelStats
	stats0   bdd.Stats // manager counters at the last ResetRelStats (cache-rate deltas)

	hasSucc      bdd.Ref // cached ∃v′.Trans (IsTotal, DeadlockStates)
	hasSuccValid bool

	// Reachable-state cache (opt-in, EnableReachableCache): the fixpoint
	// result is kept — protected and reorder-safe — and returned by every
	// later Reachable call. This is the session-reuse path of a
	// long-running checking service, and SetReachable is its warm-start
	// entry: a set restored from disk replaces the fixpoint entirely.
	reach        bdd.Ref
	reachIters   int
	reachValid   bool
	reachCaching bool
}

// NewSymbolic allocates a symbolic structure with the given state
// variable names. Transition relation and initial states start as True
// (callers and builders conjoin constraints in). Manager options (e.g.
// bdd.DisableComplementEdges for the structural-representation oracle)
// pass through to the underlying bdd.New.
func NewSymbolic(names []string, opts ...bdd.Option) *Symbolic {
	m := bdd.New(2*len(names), opts...)
	s := &Symbolic{
		M:          m,
		trans:      bdd.True,
		transValid: true,
		Init:       bdd.True,
		Invar:      bdd.True,
		atoms:      map[string]bdd.Ref{},
		eqAtoms:    map[string]func(string) (bdd.Ref, error){},
	}
	for i, n := range names {
		s.Vars = append(s.Vars, StateVar{Name: n, Cur: 2 * i, Next: 2*i + 1})
		s.atoms[n] = m.Protect(m.Var(2 * i))
		// Each current/next pair sifts as one block: splitting a pair
		// explodes the transition relation, so reordering never considers
		// it.
		m.GroupVars(2*i, 2*i+1)
	}
	s.finishVars()
	m.OnReorder(s.rewriteRefs)
	return s
}

// rewriteRefs is the structure's reorder hook: every long-lived Ref the
// structure holds — initial states, invariant, fairness sets, atoms,
// quantification cubes, the monolithic relation, and the partition's
// clusters and schedule cubes — is rewritten in place after a reorder.
func (s *Symbolic) rewriteRefs(translate func(bdd.Ref) bdd.Ref) {
	s.Init = translate(s.Init)
	s.Invar = translate(s.Invar)
	if s.transValid {
		s.trans = translate(s.trans)
	}
	for i := range s.Fair {
		s.Fair[i] = translate(s.Fair[i])
	}
	for k, v := range s.atoms {
		s.atoms[k] = translate(v)
	}
	s.curCube = translate(s.curCube)
	s.nextCube = translate(s.nextCube)
	if s.hasSuccValid {
		s.hasSucc = translate(s.hasSucc)
	}
	if s.reachValid {
		s.reach = translate(s.reach)
	}
	if p := s.part; p != nil {
		for i := range p.clusters {
			p.clusters[i] = translate(p.clusters[i])
		}
		for i := range p.pre.cubes {
			p.pre.cubes[i] = translate(p.pre.cubes[i])
		}
		p.pre.free = translate(p.pre.free)
		for i := range p.img.cubes {
			p.img.cubes[i] = translate(p.img.cubes[i])
		}
		p.img.free = translate(p.img.free)
	}
	if d := s.disj; d != nil {
		for i := range d.comps {
			c := &d.comps[i]
			c.rel = translate(c.rel)
			c.imgCube = translate(c.imgCube)
			c.imgFree = translate(c.imgFree)
			c.preCube = translate(c.preCube)
			c.preFree = translate(c.preFree)
		}
	}
}

// finishVars (re)computes the cubes and renaming permutations; called
// after the variable set is fixed.
func (s *Symbolic) finishVars() {
	cur := make([]int, len(s.Vars))
	next := make([]int, len(s.Vars))
	perm := make([]int, s.M.NumVars())
	for i := range perm {
		perm[i] = i
	}
	for i, v := range s.Vars {
		cur[i] = v.Cur
		next[i] = v.Next
		perm[v.Cur] = v.Next
		perm[v.Next] = v.Cur
	}
	s.curCube = s.M.Protect(s.M.Cube(cur))
	s.nextCube = s.M.Protect(s.M.Cube(next))
	p := s.M.NewPermutation(perm)
	s.toNext = p
	s.toCur = p // the swap is an involution
}

// NumVars returns the number of state variables (not BDD variables).
func (s *Symbolic) NumVars() int { return len(s.Vars) }

// CurVars returns the BDD variable indices of the current-state copy.
func (s *Symbolic) CurVars() []int {
	out := make([]int, len(s.Vars))
	for i, v := range s.Vars {
		out[i] = v.Cur
	}
	return out
}

// NextVars returns the BDD variable indices of the next-state copy.
func (s *Symbolic) NextVars() []int {
	out := make([]int, len(s.Vars))
	for i, v := range s.Vars {
		out[i] = v.Next
	}
	return out
}

// CurCube returns the cube of all current-state variables.
func (s *Symbolic) CurCube() bdd.Ref { return s.curCube }

// NextCube returns the cube of all next-state variables.
func (s *Symbolic) NextCube() bdd.Ref { return s.nextCube }

// ToNext renames a current-state set to next-state variables.
func (s *Symbolic) ToNext(f bdd.Ref) bdd.Ref { return s.toNext.Apply(f) }

// ToCur renames a next-state set to current-state variables.
func (s *Symbolic) ToCur(f bdd.Ref) bdd.Ref { return s.toCur.Apply(f) }

// RegisterAtom makes the boolean atomic proposition name denote the
// state set f (over current variables). The set is protected against
// garbage collection for the structure's lifetime.
func (s *Symbolic) RegisterAtom(name string, f bdd.Ref) {
	if old, ok := s.atoms[name]; ok {
		s.M.Unprotect(old)
	}
	s.atoms[name] = s.M.Protect(f)
}

// RegisterEqAtom installs a resolver for "name = value" atoms over a
// finite-domain variable.
func (s *Symbolic) RegisterEqAtom(name string, resolve func(value string) (bdd.Ref, error)) {
	s.eqAtoms[name] = resolve
}

// AtomSet resolves an atomic CTL formula (KAtom, KEq or KNeq) to the
// state set it denotes.
func (s *Symbolic) AtomSet(f *ctl.Formula) (bdd.Ref, error) {
	switch f.Kind {
	case ctl.KAtom:
		if set, ok := s.atoms[f.Name]; ok {
			return set, nil
		}
		return bdd.False, fmt.Errorf("kripke: unknown atomic proposition %q", f.Name)
	case ctl.KEq, ctl.KNeq:
		// Comparison of two boolean atoms: "x = y" as equivalence.
		if lset, okl := s.atoms[f.Name]; okl {
			if rset, okr := s.atoms[f.Value]; okr {
				eq := s.M.Eq(lset, rset)
				if f.Kind == ctl.KNeq {
					return s.M.Not(eq), nil
				}
				return eq, nil
			}
		}
		res, ok := s.eqAtoms[f.Name]
		if !ok {
			// Allow boolean atoms compared against 0/1/true/false.
			if set, okb := s.atoms[f.Name]; okb {
				var want bool
				switch f.Value {
				case "1", "true", "TRUE":
					want = true
				case "0", "false", "FALSE":
					want = false
				default:
					return bdd.False, fmt.Errorf("kripke: %q is boolean; cannot compare with %q", f.Name, f.Value)
				}
				if f.Kind == ctl.KNeq {
					want = !want
				}
				if want {
					return set, nil
				}
				return s.M.Not(set), nil
			}
			return bdd.False, fmt.Errorf("kripke: unknown variable %q in comparison", f.Name)
		}
		set, err := res(f.Value)
		if err != nil {
			return bdd.False, err
		}
		if f.Kind == ctl.KNeq {
			return s.M.Not(set), nil
		}
		return set, nil
	}
	return bdd.False, fmt.Errorf("kripke: AtomSet on non-atomic formula %s", f)
}

// Trans returns the monolithic transition relation R(v, v′). When the
// structure was built through a partition — conjunctive clusters or
// disjunctive components — the monolithic BDD is not constructed up
// front: the partitioned image computations never need it, and on large
// models it blows up. It is materialized on first demand and cached,
// from the clusters when a conjunctive partition exists, otherwise as
// the union of the disjunctive components.
func (s *Symbolic) Trans() bdd.Ref {
	if !s.transValid {
		m := s.M
		var acc bdd.Ref
		if s.part != nil {
			acc = m.Protect(bdd.True)
			for _, c := range s.part.clusters {
				next := m.Protect(m.And(acc, c))
				m.Unprotect(acc)
				acc = next
				m.MaybeGC()
			}
		} else if s.disj != nil {
			acc = m.Protect(bdd.False)
			for i := range s.disj.comps {
				next := m.Protect(m.Or(acc, s.disj.comps[i].rel))
				m.Unprotect(acc)
				acc = next
				m.MaybeGC()
			}
		} else {
			acc = m.Protect(bdd.True)
		}
		s.trans = acc
		s.transValid = true
	}
	return s.trans
}

// SetTrans installs f as the monolithic transition relation and
// protects it from garbage collection.
func (s *Symbolic) SetTrans(f bdd.Ref) {
	if s.transValid {
		s.M.Unprotect(s.trans)
	}
	s.trans = s.M.Protect(f)
	s.transValid = true
}

// Image returns the set of successors of the states in from:
// { t | ∃s ∈ from : R(s,t) }, expressed over current variables. When a
// conjunctive partition is installed (SetClusters) the relational
// product is computed cluster by cluster with early quantification.
func (s *Symbolic) Image(from bdd.Ref) bdd.Ref {
	s.relStats.ImageCalls++
	if s.DisjunctEnabled() {
		return s.imageDisjunct(from)
	}
	if s.PartitionEnabled() {
		return s.imagePart(from)
	}
	// Registering the argument keeps it valid across Trans(), which may
	// materialize the monolithic relation (GC) or hit a reorder safe
	// point.
	id := s.M.RegisterRefs(&from)
	trans := s.Trans()
	s.M.Unregister(id)
	next := s.M.AndExists(from, trans, s.curCube)
	s.noteLiveNodes()
	return s.ToCur(next)
}

// Preimage returns EX to: the set of states with some successor in to.
func (s *Symbolic) Preimage(to bdd.Ref) bdd.Ref {
	s.relStats.PreimageCalls++
	if s.DisjunctEnabled() {
		return s.preimageDisjunct(to)
	}
	if s.PartitionEnabled() {
		return s.preimagePart(to)
	}
	id := s.M.RegisterRefs(&to)
	trans := s.Trans()
	s.M.Unregister(id)
	next := s.ToNext(to)
	res := s.M.AndExists(trans, next, s.nextCube)
	s.noteLiveNodes()
	return res
}

// hasSuccessors returns ∃v′.Trans — the states with at least one
// successor — computed once (through the partitioned path when one is
// installed, since Preimage(true) is exactly this set) and cached for
// the structure's lifetime. Shared by IsTotal and DeadlockStates.
func (s *Symbolic) hasSuccessors() bdd.Ref {
	if !s.hasSuccValid {
		s.hasSucc = s.M.Protect(s.Preimage(bdd.True))
		s.hasSuccValid = true
	}
	return s.hasSucc
}

// Reachable computes the set of states reachable from Init by a
// breadth-first least fixpoint, returning the set and the number of
// frontier iterations. Garbage is collected opportunistically between
// frontier steps on large models. With the reachable cache enabled the
// fixpoint runs at most once; repeat calls return the cached set and
// count as ReachableReuses in RelStats.
func (s *Symbolic) Reachable() (bdd.Ref, int) {
	if s.reachValid {
		s.relStats.ReachableReuses++
		return s.reach, s.reachIters
	}
	reached, iters := s.reachableCompute()
	if s.reachCaching {
		s.reach = s.M.Protect(reached)
		s.reachIters = iters
		s.reachValid = true
	}
	return reached, iters
}

// EnableReachableCache makes the next Reachable result stick for the
// structure's lifetime. Off by default: one-shot checking protects and
// releases the set itself, and tests exercising the fixpoint repeatedly
// want it recomputed.
func (s *Symbolic) EnableReachableCache() { s.reachCaching = true }

// SetReachable seeds the reachable cache with an externally computed
// set — the warm-start path, where the set was restored from a disk
// record rather than recomputed. iters is the frontier count reported
// alongside it.
func (s *Symbolic) SetReachable(r bdd.Ref, iters int) {
	if s.reachValid {
		s.M.Unprotect(s.reach)
	}
	s.reach = s.M.Protect(r)
	s.reachIters = iters
	s.reachValid = true
	s.reachCaching = true
}

// ReachableCached peeks at the cache without computing anything.
func (s *Symbolic) ReachableCached() (bdd.Ref, int, bool) {
	return s.reach, s.reachIters, s.reachValid
}

func (s *Symbolic) reachableCompute() (bdd.Ref, int) {
	if s.DisjunctEnabled() {
		return s.reachableDisjunct()
	}
	m := s.M
	reached := m.Protect(s.Init)
	frontier := m.Protect(s.Init)
	id := m.RegisterRefs(&reached, &frontier)
	iters := 0
	for frontier != bdd.False {
		iters++
		m.ReorderIfNeeded()
		img := s.Image(frontier)
		m.Unprotect(frontier)
		frontier = m.Protect(m.Diff(img, reached))
		m.Unprotect(reached)
		reached = m.Protect(m.Or(reached, frontier))
		m.MaybeGC()
	}
	m.Unregister(id)
	m.Unprotect(frontier)
	m.Unprotect(reached)
	return reached, iters
}

// CountStates returns the number of states in the set (over the state
// variables of this structure).
func (s *Symbolic) CountStates(set bdd.Ref) float64 {
	// Quantify out any next-state variables, then count over cur vars.
	over := s.M.Exists(set, s.nextCube)
	return s.M.SatCount(over, s.M.NumVars()) / pow2(len(s.Vars))
}

func pow2(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 2
	}
	return r
}

// State is a concrete state: the values of the state variables in
// declaration order.
type State []bool

// Key packs a state into a comparable string for map keys.
func (st State) Key() string {
	b := make([]byte, len(st))
	for i, v := range st {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// PickState extracts one concrete state from a non-empty set,
// deterministically. Returns nil if the set is empty.
func (s *Symbolic) PickState(set bdd.Ref) State {
	vals := s.M.PickOne(set, s.CurVars())
	if vals == nil {
		return nil
	}
	return State(vals)
}

// StateCube returns the BDD cube (over current variables) of a single
// concrete state.
func (s *Symbolic) StateCube(st State) bdd.Ref {
	return s.M.MintermCube(s.CurVars(), st)
}

// Holds reports whether the concrete state st belongs to the set.
func (s *Symbolic) Holds(set bdd.Ref, st State) bool {
	env := make([]bool, s.M.NumVars())
	for i, v := range s.Vars {
		env[v.Cur] = st[i]
	}
	return s.M.Eval(set, env)
}

// HasEdge reports whether the transition relation contains the edge
// from -> to.
func (s *Symbolic) HasEdge(from, to State) bool {
	env := make([]bool, s.M.NumVars())
	for i, v := range s.Vars {
		env[v.Cur] = from[i]
		env[v.Next] = to[i]
	}
	// With a partition installed, evaluate the factors pointwise — every
	// conjunct must accept the edge, or some disjunct must — so trace
	// validation never forces the monolithic BDD into existence.
	if !s.transValid {
		if s.part != nil {
			for _, c := range s.part.clusters {
				if !s.M.Eval(c, env) {
					return false
				}
			}
			return true
		}
		if s.disj != nil {
			for i := range s.disj.comps {
				if s.M.Eval(s.disj.comps[i].rel, env) {
					return true
				}
			}
			return false
		}
	}
	return s.M.Eval(s.Trans(), env)
}

// Successors enumerates the concrete successors of st, up to limit
// (limit <= 0 means no limit).
func (s *Symbolic) Successors(st State, limit int) []State {
	img := s.Image(s.StateCube(st))
	return s.EnumStates(img, limit)
}

// EnumStates lists the concrete states of a set, up to limit
// (limit <= 0 means no limit). The order is deterministic.
func (s *Symbolic) EnumStates(set bdd.Ref, limit int) []State {
	var out []State
	s.M.AllSat(set, s.CurVars(), func(a []bool) bool {
		st := make(State, len(a))
		copy(st, a)
		out = append(out, st)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// FormatState renders a state as "name=0/1" pairs.
func (s *Symbolic) FormatState(st State) string {
	parts := make([]string, len(st))
	for i, v := range s.Vars {
		val := "0"
		if st[i] {
			val = "1"
		}
		parts[i] = v.Name + "=" + val
	}
	return strings.Join(parts, " ")
}

// VarNames returns the state variable names in declaration order.
func (s *Symbolic) VarNames() []string {
	out := make([]string, len(s.Vars))
	for i, v := range s.Vars {
		out[i] = v.Name
	}
	return out
}

// AddFairness appends a fairness-constraint state set.
func (s *Symbolic) AddFairness(name string, set bdd.Ref) {
	s.Fair = append(s.Fair, s.M.Protect(set))
	s.FairNames = append(s.FairNames, name)
}

// WithFairness returns a shallow view of the structure with the given
// fairness constraints in place of the declared ones. The manager, the
// transition relation and the atoms are shared; only the fairness
// constraints differ. Used by the CTL* fragment checker (Section 7),
// which turns GF-terms into fairness constraints on the fly.
//
// A view is not registered with the reorder registry: its copied Refs do
// not survive a dynamic reorder. Callers must pause automatic reordering
// (bdd.Manager.PauseAutoReorder) for the view's lifetime, as the CTL*
// checker does.
func (s *Symbolic) WithFairness(sets []bdd.Ref, names []string) *Symbolic {
	view := *s
	view.Fair = append([]bdd.Ref(nil), sets...)
	view.FairNames = append([]string(nil), names...)
	return &view
}

// AtomNames returns the registered boolean atom names, sorted.
func (s *Symbolic) AtomNames() []string {
	out := make([]string, 0, len(s.atoms))
	for n := range s.atoms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
