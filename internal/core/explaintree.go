package core

import (
	"fmt"
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
// indented argument rather than a flat state dump.

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
	return g.explainTree(basis, from)
}

// CounterexampleTree is ExplainTree for the negation of a property that
// fails at the state.
func (g *Generator) CounterexampleTree(f *ctl.Formula, from kripke.State) (*ExplainNode, error) {
	return g.ExplainTree(ctl.Not(f), from)
}

func (g *Generator) explainTree(f *ctl.Formula, from kripke.State) (*ExplainNode, error) {
	s := g.C.S
	node := &ExplainNode{Formula: f, State: from}
	switch f.Kind {
	case ctl.KTrue, ctl.KAtom, ctl.KEq, ctl.KNeq:
		return node, nil
	case ctl.KFalse:
		return nil, ErrNotSatisfied
	case ctl.KNot:
		node.Comment = "holds by set membership (no path can demonstrate a negated temporal fact)"
		if ctl.IsPropositional(f.L) {
			node.Comment = ""
		}
		return node, nil
	case ctl.KAnd:
		l, err := g.explainTree(f.L, from)
		if err != nil {
			return nil, err
		}
		r, err := g.explainTree(f.R, from)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, l, r)
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
		child, err := g.explainTree(pick, from)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
		return node, nil
	case ctl.KEX:
		inner, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		tr, err := g.WitnessEX(inner, from, false)
		if err != nil {
			return nil, err
		}
		node.Evidence = tr
		child, err := g.explainTree(f.L, tr.Last())
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
		return node, nil
	case ctl.KEU:
		lset, err := g.C.Check(f.L)
		if err != nil {
			return nil, err
		}
		rset, err := g.C.Check(f.R)
		if err != nil {
			return nil, err
		}
		tr, err := g.WitnessEU(lset, rset, from, false)
		if err != nil {
			return nil, err
		}
		node.Evidence = tr
		// the target obligation at the end of the path
		child, err := g.explainTree(f.R, tr.Last())
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
		// the left obligation along the way, expanded only when it has
		// structure worth showing
		if !ctl.IsPropositional(f.L) && tr.Len() > 1 {
			mid, err := g.explainTree(f.L, tr.States[0])
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
			child, err := g.explainTree(f.L, tr.States[tr.CycleStart])
			if err != nil {
				return nil, err
			}
			child.Comment = strings.TrimSpace(child.Comment + " (holds at every state of the lasso)")
			node.Children = append(node.Children, child)
		}
		return node, nil
	default:
		return nil, fmt.Errorf("core: explainTree on non-basis formula %s", f)
	}
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
// anchoring invariants (children anchored on their parent's evidence
// where applicable).
func (n *ExplainNode) Validate(s *kripke.Symbolic) error {
	if n.Evidence != nil {
		if err := ValidatePath(s, n.Evidence); err != nil {
			return fmt.Errorf("evidence of %s: %w", n.Formula, err)
		}
		if !sameState(n.Evidence.First(), n.State) {
			return fmt.Errorf("evidence of %s does not start at the node's state", n.Formula)
		}
	}
	for _, c := range n.Children {
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}
