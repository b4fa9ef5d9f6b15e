package core

import (
	"strings"

	"repro/internal/kripke"
)

// Trace compaction — the paper's Section 9 notes that "techniques for
// generating even shorter counterexamples will make symbolic model
// checking more useful in practice". Compact post-processes a generated
// lasso with shortcut edges: whenever the model has a direct transition
// from trace state i to trace state j > i+1, the states strictly
// between them can be cut, provided the cut does not remove a state the
// trace needs (the invariant holds everywhere on the trace already, so
// only the cycle's fairness coverage must be re-checked).
//
// The result is not minimal — Theorem 1 shows minimality is NP-complete
// — but on traces produced by the greedy ring walk it often removes the
// detours left by restarts.

// Compact shortens tr in place subject to:
//   - after compaction the cycle still visits every fairness constraint
//     of the structure (checked only when the trace is a lasso);
//   - states carrying a demonstration obligation — the annotated
//     until-/next-targets the recursive witness construction recorded —
//     are pinned and never cut (without this, compaction could remove
//     the very state that violates the property).
//
// It returns the number of states removed.
func Compact(s *kripke.Symbolic, tr *Trace) int {
	removed := 0
	for {
		n := compactOnce(s, tr)
		if n == 0 {
			return removed
		}
		removed += n
	}
}

// pinned marks the state indices that must survive compaction: any
// state with a non-fairness annotation (fairness hits are re-derived;
// obligations are not).
func (t *Trace) pinned() []bool {
	out := make([]bool, len(t.States))
	for i, n := range t.Notes {
		if n == "" {
			continue
		}
		if strings.HasPrefix(n, "fair:") {
			continue
		}
		out[i] = true
	}
	return out
}

func anyPinned(pin []bool, lo, hi int) bool {
	for i := lo; i < hi && i < len(pin); i++ {
		if pin[i] {
			return true
		}
	}
	return false
}

// compactOnce performs one left-to-right shortcut pass.
func compactOnce(s *kripke.Symbolic, tr *Trace) int {
	if len(tr.States) < 3 {
		return 0
	}
	pin := tr.pinned()
	// Prefix shortcuts: cut within [0, CycleStart]; a shortcut from a
	// prefix state directly into the cycle head also shortens the
	// prefix.
	if tr.IsLasso() {
		n := shortcutRange(s, tr, 0, tr.CycleStart, pin)
		if n > 0 {
			return n
		}
		// Cycle shortcuts: cut within the cycle while preserving
		// fairness coverage.
		return shortcutCycle(s, tr, pin)
	}
	return shortcutRange(s, tr, 0, len(tr.States)-1, pin)
}

// shortcutRange cuts the first available shortcut i -> j (j > i+1)
// inside [lo, hi] and returns the number of removed states.
func shortcutRange(s *kripke.Symbolic, tr *Trace, lo, hi int, pin []bool) int {
	for i := lo; i < hi-1; i++ {
		for j := hi; j > i+1; j-- {
			if anyPinned(pin, i+1, j) {
				continue
			}
			if !s.HasEdge(tr.States[i], tr.States[j]) {
				continue
			}
			cut := j - i - 1
			tr.remove(i+1, j)
			return cut
		}
	}
	return 0
}

// shortcutCycle cuts a shortcut within the cycle if the resulting
// shorter cycle still covers every fairness constraint.
func shortcutCycle(s *kripke.Symbolic, tr *Trace, pin []bool) int {
	cs := tr.CycleStart
	n := len(tr.States)
	for i := cs; i < n-1; i++ {
		for j := n - 1; j > i+1; j-- {
			if anyPinned(pin, i+1, j) {
				continue
			}
			if !s.HasEdge(tr.States[i], tr.States[j]) {
				continue
			}
			if !cycleCoversWithout(s, tr, i+1, j) {
				continue
			}
			tr.remove(i+1, j)
			return j - i - 1
		}
	}
	// Also consider trimming the tail: states after the last one with a
	// closing edge to the cycle head.
	for last := n - 2; last >= cs; last-- {
		if anyPinned(pin, last+1, n) {
			continue
		}
		if !s.HasEdge(tr.States[last], tr.States[cs]) {
			continue
		}
		if !cycleCoversWithout(s, tr, last+1, n) {
			continue
		}
		cut := n - 1 - last
		tr.remove(last+1, n)
		return cut
	}
	return 0
}

// cycleCoversWithout checks that the cycle minus states [cutLo, cutHi)
// still hits every fairness constraint.
func cycleCoversWithout(s *kripke.Symbolic, tr *Trace, cutLo, cutHi int) bool {
	for _, h := range s.Fair {
		hit := false
		for i := tr.CycleStart; i < len(tr.States); i++ {
			if i >= cutLo && i < cutHi {
				continue
			}
			if s.Holds(h, tr.States[i]) {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// remove drops states [lo, hi) from the trace, fixing up CycleStart,
// FairHits and Notes. Indices with lo <= idx < hi are dropped; larger
// indices shift left.
func (t *Trace) remove(lo, hi int) {
	cut := hi - lo
	t.States = append(t.States[:lo], t.States[hi:]...)
	if t.CycleStart >= hi {
		t.CycleStart -= cut
	} else if t.CycleStart >= lo {
		t.CycleStart = lo
		if t.CycleStart >= len(t.States) {
			t.CycleStart = len(t.States) - 1
		}
	}
	for h, idx := range t.FairHits {
		switch {
		case idx >= hi:
			t.FairHits[h] = idx - cut
		case idx >= lo:
			delete(t.FairHits, h) // hit state removed; coverage re-checked by caller
		}
	}
	if len(t.Notes) > 0 {
		if hi > len(t.Notes) {
			hi = len(t.Notes)
		}
		if lo < len(t.Notes) {
			t.Notes = append(t.Notes[:lo], t.Notes[hi:]...)
		}
	}
}
