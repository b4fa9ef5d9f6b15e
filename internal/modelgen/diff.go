package modelgen

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/explicit"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/smv"
)

// Cell is one point of the configuration lattice: an engine config plus
// the monolithic image, a test-only oracle that evaluates images over
// the conjoined relation instead of the cluster partition. Every cell
// must compute the same reachable set and the same verdict for every
// specification — they are different evaluation strategies over the
// same transition relation.
type Cell struct {
	smv.Config
	Monolithic bool
}

func (c Cell) String() string {
	s := "partitioned"
	switch {
	case c.Monolithic:
		s = "monolithic"
	case c.Disjunctive:
		s = "disjunctive"
	}
	if c.NoComplement {
		s += "-comp"
	} else {
		s += "+comp"
	}
	if c.Reorder {
		s += "+reorder"
	}
	return s
}

// Cells enumerates the lattice. Disjunctive cells are only meaningful
// when the compiled model has process disjuncts.
func Cells(hasDisjuncts bool) []Cell {
	modes := []Cell{{}, {Monolithic: true}}
	if hasDisjuncts {
		modes = append(modes, Cell{Config: smv.Config{Disjunctive: true}})
	}
	var out []Cell
	for _, mode := range modes {
		for _, noComp := range []bool{false, true} {
			for _, reorder := range []bool{false, true} {
				cell := mode
				cell.NoComplement = noComp
				cell.Reorder = reorder
				out = append(out, cell)
			}
		}
	}
	return out
}

// LatticeReorder is the lattice's sifting profile: it makes
// growth-triggered sifting fire on generator-sized models (default
// MinNodes is 16k live nodes, far above anything a 4-variable model
// allocates) while keeping each sift one cheap pass.
var LatticeReorder = bdd.ReorderOptions{
	GrowthTrigger: 1.5,
	MinNodes:      256,
	MaxPasses:     1,
	Window:        4,
	MaxBlocks:     16,
}

// cellRun is everything observable from one cell: the reachable-state
// count, per-spec verdicts, and the emitted traces (nil where a spec
// holds / no witness shape applies).
type cellRun struct {
	cell      Cell
	c         *smv.Compiled
	reachable float64
	ctl       []bool
	ctlTraces []*core.Trace
	ltl       []bool
	ltlTraces []*core.Trace
	products  []*smv.LTLProduct
}

// configure applies the cell's test-only settings on top of its config:
// the monolithic image, and the small-model sift options in place of
// the defaults the config switched on.
func (r *cellRun) configure(c *smv.Compiled) {
	if r.cell.Monolithic {
		c.S.EnablePartition(false)
	}
	if r.cell.Reorder {
		c.S.M.EnableAutoReorder(&LatticeReorder)
	}
}

// runCell checks every SPEC and LTLSPEC of src under one cell,
// validating each emitted trace against its own structure. Any
// internal inconsistency (invalid trace, failed replay, missing
// counterexample) is an error — those are engine bugs, not divergences
// between cells, but the soak reports them the same way.
func runCell(src string, cell Cell) (*cellRun, error) {
	c, err := smv.CompileSource(src, cell.Config)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", cell, err)
	}
	run := &cellRun{cell: cell, c: c}
	run.configure(c)

	reach, _ := c.S.Reachable()
	run.reachable = c.S.CountStates(reach)

	gen := core.NewGenerator(mc.New(c.S))
	for _, sp := range c.Module.Specs {
		if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", cell, sp.Source, err)
		}
		holds, tr, err := gen.CounterexampleInit(sp.Formula)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", cell, sp.Source, err)
		}
		if !holds {
			if tr == nil {
				return nil, fmt.Errorf("%s: %s: failed without a counterexample", cell, sp.Source)
			}
			if err := validateOwnTrace(c.S, tr); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", cell, sp.Source, err)
			}
		}
		run.ctl = append(run.ctl, holds)
		run.ctlTraces = append(run.ctlTraces, tr)
	}
	for _, sp := range c.Module.LTLSpecs {
		p, err := c.Product(sp.Formula, sp.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: LTLSPEC %s: %w", cell, sp.Source, err)
		}
		run.configure(p.Compiled)
		ch := mc.New(p.S)
		holds, tr, err := p.Check(ch)
		if err != nil {
			return nil, fmt.Errorf("%s: LTLSPEC %s: %w", cell, sp.Source, err)
		}
		if !holds {
			if tr == nil {
				return nil, fmt.Errorf("%s: LTLSPEC %s: failed without a counterexample", cell, sp.Source)
			}
			if err := validateOwnTrace(p.S, tr); err != nil {
				return nil, fmt.Errorf("%s: LTLSPEC %s: %w", cell, sp.Source, err)
			}
			// The replay oracle: project the lasso onto the model and
			// evaluate the formula over it with LTL semantics.
			if err := p.ReplayCounterexample(tr); err != nil {
				return nil, fmt.Errorf("%s: LTLSPEC %s: replay: %w", cell, sp.Source, err)
			}
		}
		run.ltl = append(run.ltl, holds)
		run.ltlTraces = append(run.ltlTraces, tr)
		run.products = append(run.products, p)
		ch.Close()
	}
	return run, nil
}

func validateOwnTrace(s *kripke.Symbolic, tr *core.Trace) error {
	if err := core.ValidatePath(s, tr); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	if tr.IsLasso() && len(s.Fair) > 0 {
		if err := core.ValidateFairLasso(s, tr); err != nil {
			return fmt.Errorf("lasso violates fairness: %w", err)
		}
	}
	return nil
}

// Oracle size bounds: generated models stay far below these; the
// scenario corpus can exceed them, in which case the explicit oracle is
// skipped and only the cell-vs-cell comparison applies.
const (
	maxOracleStates = 6000
	maxOracleEdges  = 60000
)

// buildOracle enumerates the reachable fragment of a compiled model
// into an explicit structure. Labels are rebuilt from the declared
// variables — boolean variables label their name when true, enum and
// range variables label "name=value" — matching the atom conventions
// of both the explicit CTL checker and LabelAtom. (kripke.ToExplicit
// only carries boolean atoms, so it cannot serve as the oracle bridge
// for models with enum state.)
func buildOracle(c *smv.Compiled) (*kripke.Explicit, error) {
	init := c.S.EnumStates(c.S.Init, maxOracleStates+1)
	if len(init) > maxOracleStates {
		return nil, fmt.Errorf("modelgen: too many initial states")
	}
	index := map[string]int{}
	var states []kripke.State
	add := func(st kripke.State) int {
		k := st.Key()
		if i, ok := index[k]; ok {
			return i
		}
		i := len(states)
		index[k] = i
		states = append(states, st)
		return i
	}
	type edge struct{ u, v int }
	var edges []edge
	queue := make([]int, 0, len(init))
	for _, st := range init {
		queue = append(queue, add(st))
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		succs := c.S.Successors(states[u], maxOracleStates+1)
		for _, sv := range succs {
			before := len(states)
			v := add(sv)
			if v == before {
				if len(states) > maxOracleStates {
					return nil, fmt.Errorf("modelgen: oracle state bound exceeded")
				}
				queue = append(queue, v)
			}
			edges = append(edges, edge{u, v})
			if len(edges) > maxOracleEdges {
				return nil, fmt.Errorf("modelgen: oracle edge bound exceeded")
			}
		}
	}

	e := kripke.NewExplicit(len(states))
	for _, ed := range edges {
		e.AddEdge(ed.u, ed.v)
	}
	for _, st := range init {
		e.AddInit(index[st.Key()])
	}
	for i, st := range states {
		for _, name := range c.Order {
			if strings.HasPrefix(name, "_") {
				continue // scheduler/tableau internals never appear in specs
			}
			v := c.StateValue(st, name)
			if v.Kind == smv.VBool {
				if v.B {
					e.Label(i, name)
				}
				continue
			}
			e.Label(i, name+"="+v.String())
		}
	}
	// DEFINE names used as spec atoms are not declared variables, so the
	// per-variable labeling above misses them; resolve each such literal
	// through the same AtomSet machinery the symbolic checker uses.
	// Boolean defines get a plain label. Valued defines compared with
	// "=" get "name=value" where the literal holds and "name=?"
	// elsewhere — "?" is unmentionable in a spec, so the complement
	// label exists purely to mark the name as finite-domain and keep the
	// explicit checkers' boolean 0/1 fallback from firing.
	for l := range specLiterals(c.Module) {
		if c.Vars[l.name] != nil {
			continue // declared variables are already fully labeled
		}
		af := &ctl.Formula{Kind: ctl.KAtom, Name: l.name}
		if l.value != "" {
			af = &ctl.Formula{Kind: ctl.KEq, Name: l.name, Value: l.value}
		}
		set, err := c.S.AtomSet(af)
		if err != nil {
			return nil, err
		}
		for i, st := range states {
			switch holds := c.S.Holds(set, st); {
			case l.value == "" && holds:
				e.Label(i, l.name)
			case l.value != "" && holds:
				e.Label(i, l.name+"="+l.value)
			case l.value != "":
				e.Label(i, l.name+"=?")
			}
		}
	}
	for k, f := range c.S.Fair {
		set := make([]bool, len(states))
		for i, st := range states {
			set[i] = c.S.Holds(f, st)
		}
		e.AddFairSet(c.S.FairNames[k], set)
	}
	return e, nil
}

type literal struct{ name, value string }

// specLiterals collects every atomic literal (bare atom or name=value
// comparison) appearing in the module's SPEC and LTLSPEC formulas.
func specLiterals(m *smv.Module) map[literal]bool {
	lits := map[literal]bool{}
	var walkC func(f *ctl.Formula)
	walkC = func(f *ctl.Formula) {
		if f == nil {
			return
		}
		switch f.Kind {
		case ctl.KAtom:
			lits[literal{f.Name, ""}] = true
		case ctl.KEq, ctl.KNeq:
			lits[literal{f.Name, f.Value}] = true
		}
		walkC(f.L)
		walkC(f.R)
	}
	var walkL func(f *ltl.Formula)
	walkL = func(f *ltl.Formula) {
		if f == nil {
			return
		}
		switch f.Kind {
		case ltl.KAtom:
			lits[literal{f.Name, ""}] = true
		case ltl.KEq, ltl.KNeq:
			lits[literal{f.Name, f.Value}] = true
		}
		walkL(f.L)
		walkL(f.R)
	}
	for _, sp := range m.Specs {
		walkC(sp.Formula)
	}
	for _, sp := range m.LTLSpecs {
		walkL(sp.Formula)
	}
	return lits
}

// Divergence describes a disagreement between two lattice cells or
// between a cell and the explicit-state oracle.
type Divergence struct {
	Where  string // cell (or "explicit") that disagrees with the reference
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("modelgen divergence [%s]: %s", d.Where, d.Detail)
}

func diverge(where, format string, args ...any) error {
	return &Divergence{Where: where, Detail: fmt.Sprintf(format, args...)}
}

// CheckModel compiles src through the full configuration lattice and
// the explicit-state oracle and returns the first disagreement found
// (nil when every configuration agrees on every observable). This is
// the predicate the property test, the fuzz target, the soak binary,
// and the shrinker all share.
func CheckModel(src string) error {
	probe, err := smv.CompileSource(src, smv.Config{})
	if err != nil {
		return fmt.Errorf("modelgen: generated model does not compile: %w", err)
	}
	cells := Cells(probe.S.NumDisjuncts() > 0)

	runs := make([]*cellRun, len(cells))
	for i, cell := range cells {
		run, err := runCell(src, cell)
		if err != nil {
			return err
		}
		runs[i] = run
	}

	ref := runs[0]
	for _, run := range runs[1:] {
		if run.reachable != ref.reachable {
			return diverge(run.cell.String(), "reachable states %v, reference (%s) has %v",
				run.reachable, ref.cell, ref.reachable)
		}
		for i, holds := range run.ctl {
			if holds != ref.ctl[i] {
				return diverge(run.cell.String(), "SPEC %s: %v, reference says %v",
					ref.c.Module.Specs[i].Source, holds, ref.ctl[i])
			}
		}
		for i, holds := range run.ltl {
			if holds != ref.ltl[i] {
				return diverge(run.cell.String(), "LTLSPEC %s: %v, reference says %v",
					ref.c.Module.LTLSpecs[i].Source, holds, ref.ltl[i])
			}
		}
		// Cross-validate traces: a concrete execution of the model must
		// be accepted by every cell's structure, whichever produced it.
		for i, tr := range run.ctlTraces {
			if tr == nil {
				continue
			}
			if err := core.ValidatePath(ref.c.S, tr); err != nil {
				return diverge(run.cell.String(), "SPEC %s: trace rejected by reference structure: %v",
					ref.c.Module.Specs[i].Source, err)
			}
		}
		for i, tr := range ref.ctlTraces {
			if tr == nil {
				continue
			}
			if err := core.ValidatePath(run.c.S, tr); err != nil {
				return diverge(run.cell.String(), "SPEC %s: reference trace rejected: %v",
					ref.c.Module.Specs[i].Source, err)
			}
		}
		for i, tr := range run.ltlTraces {
			if tr == nil || i >= len(ref.products) {
				continue
			}
			if err := core.ValidatePath(ref.products[i].S, tr); err != nil {
				return diverge(run.cell.String(), "LTLSPEC %s: lasso rejected by reference product: %v",
					ref.c.Module.LTLSpecs[i].Source, err)
			}
		}
	}

	// The independent implementation: explicit-state enumeration of the
	// same reachable fragment, checked with the explicit CTL checker and
	// the explicit LTL product.
	e, err := buildOracle(ref.c)
	if err != nil {
		return nil // model exceeds oracle bounds; lattice agreement already checked
	}
	if float64(e.N) != ref.reachable {
		return diverge("explicit", "enumerated %d reachable states, symbolic counted %v",
			e.N, ref.reachable)
	}
	ec := explicit.New(e)
	for i, sp := range ref.c.Module.Specs {
		want, err := ec.CheckInit(sp.Formula)
		if err != nil {
			return diverge("explicit", "SPEC %s: %v", sp.Source, err)
		}
		if want != ref.ctl[i] {
			return diverge("explicit", "SPEC %s: explicit says %v, symbolic says %v",
				sp.Source, want, ref.ctl[i])
		}
	}
	for i, sp := range ref.c.Module.LTLSpecs {
		want, _, err := explicit.CheckLTL(e, sp.Formula)
		if err != nil {
			continue // product bound exceeded — symbolic replay already validated the lasso
		}
		if want != ref.ltl[i] {
			return diverge("explicit", "LTLSPEC %s: explicit says %v, symbolic says %v",
				sp.Source, want, ref.ltl[i])
		}
	}
	return nil
}
