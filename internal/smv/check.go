package smv

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// SpecResult is the outcome of checking one SPEC.
type SpecResult struct {
	Spec  *Spec
	Holds bool
	Trace *core.Trace // counterexample when !Holds (nil if unavailable)
	Err   error
}

// CheckAll model-checks every SPEC of the module, producing
// counterexamples for failing ones. It also reports basic model
// statistics through the returned checker.
func (c *Compiled) CheckAll() ([]SpecResult, *mc.Checker) {
	checker := mc.New(c.S)
	gen := core.NewGenerator(checker)
	var out []SpecResult
	for _, sp := range c.Module.Specs {
		res := SpecResult{Spec: sp}
		if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
			res.Err = err
			out = append(out, res)
			continue
		}
		holds, tr, err := gen.CounterexampleInit(sp.Formula)
		res.Holds = holds
		res.Trace = tr
		res.Err = err
		out = append(out, res)
	}
	return out, checker
}

// CheckSpec checks a single CTL formula against the compiled model.
func (c *Compiled) CheckSpec(f *ctl.Formula) (bool, *core.Trace, error) {
	if err := c.ResolveSpecAtoms(f); err != nil {
		return false, nil, err
	}
	gen := core.NewGenerator(mc.New(c.S))
	return gen.CounterexampleInit(f)
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
