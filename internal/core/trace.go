// Package core implements the paper's primary contribution (Section 6):
// generation of counterexamples and witnesses for symbolic CTL model
// checking under fairness constraints.
//
// A witness for EG f under fairness constraints H is an infinite fair
// path represented finitely as a lasso: a prefix followed by a repeating
// cycle on which every h ∈ H occurs at least once. The generator walks
// the saved approximation sequences ("onion rings") of the fair-EG inner
// fixpoints greedily toward the nearest fairness constraint, then closes
// the cycle, restarting further down the DAG of strongly connected
// components when the cycle cannot be closed (Figures 1 and 2 of the
// paper). Witnesses for E[f U g] and EX f reduce to finite ring walks
// that end in a state beginning a fair path.
package core

import (
	"fmt"
	"strings"

	"repro/internal/kripke"
)

// Trace is a finite representation of a witness or counterexample path.
// States lists distinct consecutive states; if CycleStart >= 0 the path
// is a lasso: after the last state execution continues at
// States[CycleStart]. If CycleStart < 0 the trace is a finite path
// (enough to demonstrate a reachability witness when fairness is not in
// play).
type Trace struct {
	S          *kripke.Symbolic
	States     []kripke.State
	CycleStart int

	// FairHits[k] is the index in States (within the cycle) where the
	// k-th fairness constraint of the structure is satisfied; nil when
	// not applicable.
	FairHits map[int]int

	// Notes carries per-state annotations (e.g. which subformula a state
	// demonstrates); indexed like States, entries may be empty.
	Notes []string
}

// newTrace returns the finite trace through the given states.
func newTrace(s *kripke.Symbolic, states ...kripke.State) *Trace {
	return &Trace{S: s, States: states, CycleStart: -1, FairHits: map[int]int{}}
}

// Len returns the total number of states (prefix + cycle).
func (t *Trace) Len() int { return len(t.States) }

// PrefixLen returns the number of states strictly before the cycle; for
// finite traces this is Len().
func (t *Trace) PrefixLen() int {
	if t.CycleStart < 0 {
		return len(t.States)
	}
	return t.CycleStart
}

// CycleLen returns the number of states on the cycle (0 for finite
// traces).
func (t *Trace) CycleLen() int {
	if t.CycleStart < 0 {
		return 0
	}
	return len(t.States) - t.CycleStart
}

// IsLasso reports whether the trace ends in a cycle.
func (t *Trace) IsLasso() bool { return t.CycleStart >= 0 }

// First returns the first state.
func (t *Trace) First() kripke.State { return t.States[0] }

// Last returns the last listed state.
func (t *Trace) Last() kripke.State { return t.States[len(t.States)-1] }

// note sets the annotation for state index i, growing Notes to the
// trace's length in one step.
func (t *Trace) note(i int, msg string) {
	if n := len(t.States); len(t.Notes) < n {
		t.Notes = append(t.Notes, make([]string, n-len(t.Notes))...)
	}
	if t.Notes[i] != "" && msg != "" {
		t.Notes[i] += "; " + msg
	} else if msg != "" {
		t.Notes[i] = msg
	}
}

// splice appends tail, which starts at t's last state, to t: tail's
// later states, its cycle, its fair hits and its notes move to t's
// indices.
func (t *Trace) splice(tail *Trace) {
	base := len(t.States) - 1
	t.States = append(t.States, tail.States[1:]...)
	if tail.CycleStart >= 0 {
		t.CycleStart = base + tail.CycleStart
	}
	for h, idx := range tail.FairHits {
		t.FairHits[h] = base + idx
	}
	for i, n := range tail.Notes {
		if n != "" {
			t.note(base+i, n)
		}
	}
}

// String renders the trace in an SMV-like style: one state per line,
// with the loop point marked.
func (t *Trace) String() string {
	var sb strings.Builder
	for i, st := range t.States {
		if t.CycleStart == i {
			sb.WriteString("-- loop starts here --\n")
		}
		fmt.Fprintf(&sb, "state %d: %s", i, t.S.FormatState(st))
		if i < len(t.Notes) && t.Notes[i] != "" {
			fmt.Fprintf(&sb, "   (%s)", t.Notes[i])
		}
		sb.WriteByte('\n')
	}
	if t.IsLasso() {
		fmt.Fprintf(&sb, "-- back to state %d --\n", t.CycleStart)
	}
	return sb.String()
}

// DeltaString renders the trace showing, after the first state, only the
// variables that changed — the compact style SMV uses for long circuit
// traces.
func (t *Trace) DeltaString() string {
	var sb strings.Builder
	var prev kripke.State
	for i, st := range t.States {
		if t.CycleStart == i {
			sb.WriteString("-- loop starts here --\n")
		}
		fmt.Fprintf(&sb, "state %d:", i)
		for vi, v := range t.S.Vars {
			if prev == nil || prev[vi] != st[vi] {
				val := "0"
				if st[vi] {
					val = "1"
				}
				fmt.Fprintf(&sb, " %s=%s", v.Name, val)
			}
		}
		if i < len(t.Notes) && t.Notes[i] != "" {
			fmt.Fprintf(&sb, "   (%s)", t.Notes[i])
		}
		sb.WriteByte('\n')
		prev = st
	}
	if t.IsLasso() {
		fmt.Fprintf(&sb, "-- back to state %d --\n", t.CycleStart)
	}
	return sb.String()
}
