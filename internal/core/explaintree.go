package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Explanation trees — the second Section 9 wish: "a more readable form
// [of counterexamples] will be helpful to engineers". Where the linear
// Witness trace interleaves every obligation into one path, ExplainTree
// keeps the logical structure: each node demonstrates one (sub)formula
// at one state, path evidence hangs off the node that needs it, and
// boolean structure becomes child nodes. Rendered, it reads as an
// indented argument rather than a flat state dump. The linear trace is
// the tree's spine: one recursion (explain) builds both, so the two
// cannot disagree.

// ExplainNode is one step of the argument: Formula holds at State.
type ExplainNode struct {
	Formula *ctl.Formula
	State   kripke.State
	// Evidence is the path demonstrating this node's own operator (nil
	// for propositional and set-level facts): two states for EX, a
	// finite path for EU, a fair lasso for EG.
	Evidence *Trace
	// Children are the sub-obligations, each anchored at its own state.
	Children []*ExplainNode
	// Spine is the child the linear trace follows, nil where the trace
	// ends: the temporal conjunct of an And (else the left one), the
	// disjunct that holds, or the obligation at the end of an EX or EU
	// path. It sits at Evidence's last state, or at State when the node
	// has no evidence.
	Spine *ExplainNode
	// Comment carries set-level justifications (e.g. negated temporal
	// operators, which no finite path can demonstrate).
	Comment string
}

// ExplainTree builds the explanation tree for a formula that holds at
// the given state. The formula is rewritten to the existential basis in
// negation normal form first; Counterexample-style usage passes the
// negation of a failed property.
func (g *Generator) ExplainTree(f *ctl.Formula, from kripke.State) (*ExplainNode, error) {
	basis := ctl.PushNegations(ctl.Existential(f))
	set, err := g.C.Check(basis)
	if err != nil {
		return nil, err
	}
	if !g.C.S.Holds(set, from) {
		return nil, ErrNotSatisfied
	}
	return g.explain(basis, from)
}

// CounterexampleTree is ExplainTree for the negation of a property that
// fails at the state.
func (g *Generator) CounterexampleTree(f *ctl.Formula, from kripke.State) (*ExplainNode, error) {
	return g.ExplainTree(ctl.Not(f), from)
}

// explain builds the tree for a basis formula known to hold at from.
// The spine is built first, so a branch off it (the second temporal
// conjunct, an EU's temporal left operand, an EG's temporal body) walks
// only after every witness the linear trace needs.
func (g *Generator) explain(f *ctl.Formula, from kripke.State) (*ExplainNode, error) {
	s := g.C.S
	node := &ExplainNode{Formula: f, State: from}
	switch f.Kind {
	case ctl.KTrue, ctl.KAtom, ctl.KEq, ctl.KNeq:
		return node, nil
	case ctl.KFalse:
		return nil, ErrNotSatisfied
	case ctl.KNot:
		if !ctl.IsPropositional(f.L) {
			node.Comment = "holds by set membership (no path can demonstrate a negated temporal fact)"
		}
		return node, nil
	case ctl.KAnd:
		l, err := g.explain(f.L, from)
		if err != nil {
			return nil, err
		}
		r, err := g.explain(f.R, from)
		if err != nil {
			return nil, err
		}
		node.Children = []*ExplainNode{l, r}
		node.Spine = l
		if ctl.IsPropositional(f.L) && !ctl.IsPropositional(f.R) {
			node.Spine = r
		}
		return node, nil
	case ctl.KOr:
		lset, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		pick := f.R
		if s.Holds(lset, from) {
			pick = f.L
		}
		return node.follow(g.explain(pick, from))
	case ctl.KEX:
		inner, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		tr, err := g.WitnessEX(inner, from)
		if err != nil {
			return nil, err
		}
		node.Evidence = tr
		return node.follow(g.explain(f.L, tr.Last()))
	case ctl.KEU:
		lset, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		rset, err := g.C.Check(f.R)
		if err != nil {
			return nil, err
		}
		tr, err := g.WitnessEU(lset, rset, from)
		if err != nil {
			return nil, err
		}
		node.Evidence = tr
		if _, err := node.follow(g.explain(f.R, tr.Last())); err != nil {
			return nil, err
		}
		// the left obligation along the way, expanded only when it has
		// structure worth showing
		if !ctl.IsPropositional(f.L) && tr.Len() > 1 {
			mid, err := g.explain(f.L, tr.States[0])
			if err != nil {
				return nil, err
			}
			mid.Comment = strings.TrimSpace(mid.Comment + " (holds at every state before the target)")
			node.Children = append(node.Children, mid)
		}
		return node, nil
	case ctl.KEG:
		inner, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		tr, err := g.WitnessEG(inner, from)
		if err != nil {
			return nil, err
		}
		node.Evidence = tr
		if !ctl.IsPropositional(f.L) {
			child, err := g.explain(f.L, tr.States[tr.CycleStart])
			if err != nil {
				return nil, err
			}
			child.Comment = strings.TrimSpace(child.Comment + " (holds at every state of the lasso)")
			node.Children = append(node.Children, child)
		}
		return node, nil
	default:
		return nil, fmt.Errorf("core: explain on non-basis formula %s", f)
	}
}

// follow makes child n's spine, unless err is set.
func (n *ExplainNode) follow(child *ExplainNode, err error) (*ExplainNode, error) {
	if err != nil {
		return nil, err
	}
	n.Children = append(n.Children, child)
	n.Spine = child
	return n, nil
}

// spineTrace flattens the spine below n into the linear trace Witness
// returns: n's evidence, or n's state when it has none, with the spine
// child's trace spliced on at the evidence's last state. A
// propositional end obligation of an EX or EU path is only noted there;
// an And notes itself, and a leaf its formula. The spine's evidence is
// extended in place, so the tree is not used afterwards.
func (n *ExplainNode) spineTrace(s *kripke.Symbolic) *Trace {
	c := n.Spine
	if n.Evidence == nil {
		if c == nil {
			tr := newTrace(s, n.State)
			tr.note(0, n.Formula.String())
			return tr
		}
		tr := c.spineTrace(s)
		if n.Formula.Kind == ctl.KAnd {
			tr.note(0, n.Formula.String())
		}
		return tr
	}
	tr := n.Evidence
	switch {
	case c == nil:
	case ctl.IsPropositional(c.Formula):
		tr.note(len(tr.States)-1, c.Formula.String())
	default:
		tr.splice(c.spineTrace(s))
	}
	return tr
}

// Render writes the tree as indented text; states print through the
// given formatter (pass s.FormatState for raw bits or a compiled
// model's pretty-printer).
func (n *ExplainNode) Render(format func(kripke.State) string) string {
	var sb strings.Builder
	n.render(&sb, format, 0)
	return sb.String()
}

func (n *ExplainNode) render(sb *strings.Builder, format func(kripke.State) string, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%s%s  @  %s\n", indent, n.Formula, format(n.State))
	if n.Comment != "" {
		fmt.Fprintf(sb, "%s  -- %s\n", indent, n.Comment)
	}
	if n.Evidence != nil {
		for i, st := range n.Evidence.States {
			marker := "   "
			if n.Evidence.CycleStart == i {
				marker = "(*)" // loop start
			}
			fmt.Fprintf(sb, "%s  %s %s\n", indent, marker, format(st))
		}
		if n.Evidence.IsLasso() {
			fmt.Fprintf(sb, "%s      ... back to (*)\n", indent)
		}
	}
	for _, c := range n.Children {
		c.render(sb, format, depth+1)
	}
}

// Size returns the number of nodes in the tree.
func (n *ExplainNode) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Validate checks the tree's evidence paths against the model and the
// anchoring invariants: evidence starts at its node's state, the spine
// child sits at the evidence's last state (at the node's own state when
// it has none), and every other child sits on a state of the evidence
// (at the node's own state when it has none).
func (n *ExplainNode) Validate(s *kripke.Symbolic) error {
	anchors := []kripke.State{n.State}
	if n.Evidence != nil {
		if err := ValidatePath(s, n.Evidence); err != nil {
			return fmt.Errorf("evidence of %s: %w", n.Formula, err)
		}
		if !sameState(n.Evidence.First(), n.State) {
			return fmt.Errorf("evidence of %s does not start at the node's state", n.Formula)
		}
		anchors = n.Evidence.States
	}
	spineSeen := n.Spine == nil
	for _, c := range n.Children {
		if c == n.Spine {
			spineSeen = true
			if !sameState(c.State, anchors[len(anchors)-1]) {
				return fmt.Errorf("%s: spine child %s does not sit at the end of the evidence", n.Formula, c.Formula)
			}
		} else if !slices.ContainsFunc(anchors, func(st kripke.State) bool { return sameState(st, c.State) }) {
			return fmt.Errorf("%s: child %s does not sit on the evidence", n.Formula, c.Formula)
		}
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	if !spineSeen {
		return fmt.Errorf("%s: spine is not one of the children", n.Formula)
	}
	return nil
}
