package smv

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Verdict is one spec's outcome from CheckCTL or CheckLTL. The trace of
// a failing spec has passed every check the call makes; a spec that
// cannot be checked, or whose trace fails a check, gives an error and
// no verdict.
type Verdict struct {
	Holds bool
	Trace *core.Trace // the counterexample when !Holds

	// LTL only: the product Trace runs over (render it with
	// Product.TraceString) and the fair-EG outer iterations of its check.
	Product     *LTLProduct
	FairEGOuter uint64
}

// CheckCTL resolves f's atoms and checks it at the initial states with
// gen, whose checker must run on c.S. A failing spec's counterexample
// has passed core.ValidatePath.
func (c *Compiled) CheckCTL(gen *core.Generator, f *ctl.Formula) (Verdict, error) {
	if err := c.ResolveSpecAtoms(f); err != nil {
		return Verdict{}, err
	}
	holds, tr, err := gen.CounterexampleInit(f)
	if err == nil {
		err = validate(c.S, holds, tr)
	}
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Holds: holds, Trace: tr}, nil
}

// CheckLTL decides f, whose spec text is source, as emptiness of c's
// product with the tableau of ¬f (see Product), on a fresh checker it
// closes before returning. A failing spec's lasso has passed
// core.ValidatePath on the product and replays as a path of the model
// that falsifies f.
func (c *Compiled) CheckLTL(f *ctl.Formula, source string) (Verdict, error) {
	p, err := c.Product(f, source)
	if err != nil {
		return Verdict{}, err
	}
	ch := mc.New(p.S)
	defer ch.Close()
	holds, tr, err := p.Check(ch)
	if err == nil {
		err = validate(p.S, holds, tr)
	}
	if err == nil && tr != nil {
		if rerr := p.ReplayCounterexample(tr); rerr != nil {
			err = fmt.Errorf("counterexample failed replay: %w", rerr)
		}
	}
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Holds: holds, Trace: tr, Product: p, FairEGOuter: ch.Stats.FairEGOuter}, nil
}

// validate requires a failing spec's counterexample to be a path of s.
func validate(s *kripke.Symbolic, holds bool, tr *core.Trace) error {
	if holds {
		return nil
	}
	if tr == nil {
		return errors.New("smv: spec is false but no counterexample was produced")
	}
	if err := core.ValidatePath(s, tr); err != nil {
		return fmt.Errorf("counterexample failed validation: %w", err)
	}
	return nil
}

// Simulate performs a random walk of n steps from a random initial
// state, using the given source of randomness, and returns it as a
// trace (CycleStart < 0). It is the non-interactive analogue of SMV's
// simulation mode and is handy for eyeballing a model before checking.
func (c *Compiled) Simulate(rng *rand.Rand, n int) (*core.Trace, error) {
	s := c.S
	states := s.EnumStates(s.Init, 256)
	if len(states) == 0 {
		return nil, fmt.Errorf("smv: model has no initial states")
	}
	cur := states[rng.Intn(len(states))]
	tr := &core.Trace{S: s, CycleStart: -1, FairHits: map[int]int{}}
	tr.States = append(tr.States, cur)
	for i := 0; i < n; i++ {
		succ := s.Successors(cur, 256)
		if len(succ) == 0 {
			return tr, fmt.Errorf("smv: deadlock after %d steps", i)
		}
		cur = succ[rng.Intn(len(succ))]
		tr.States = append(tr.States, cur)
	}
	return tr, nil
}

// DeltaTraceString renders a trace showing, after the first state, only
// the declared variables whose value changed — the compact SMV style.
func (c *Compiled) DeltaTraceString(tr *core.Trace) string { return c.renderTrace(tr, true) }

// TraceString renders a trace with declared-variable values (rather than
// raw encoding bits).
func (c *Compiled) TraceString(tr *core.Trace) string { return c.renderTrace(tr, false) }

// renderTrace builds TraceString's or, with delta, DeltaTraceString's
// rendering in one buffer.
func (c *Compiled) renderTrace(tr *core.Trace, delta bool) string {
	if tr == nil {
		return ""
	}
	var b strings.Builder
	var prev kripke.State
	for i, st := range tr.States {
		if tr.CycleStart == i {
			b.WriteString("-- loop starts here --\n")
		}
		b.WriteString("state ")
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		if delta {
			for _, name := range c.Order {
				v := c.StateValue(st, name)
				if prev == nil || c.StateValue(prev, name) != v {
					b.WriteByte(' ')
					b.WriteString(name)
					b.WriteByte('=')
					b.WriteString(v.String())
				}
			}
			prev = st
		} else {
			b.WriteByte(' ')
			c.writeStateByVars(&b, st)
		}
		if i < len(tr.Notes) && tr.Notes[i] != "" {
			b.WriteString("   (")
			b.WriteString(tr.Notes[i])
			b.WriteByte(')')
		}
		b.WriteByte('\n')
	}
	if tr.IsLasso() {
		fmt.Fprintf(&b, "-- back to state %d --\n", tr.CycleStart)
	}
	return b.String()
}
