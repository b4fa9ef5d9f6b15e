// Package ctl is the formula layer of the checker: one abstract syntax,
// one lexer and one parser for the branching-time logic CTL (Section 3
// of the paper), the linear-time logic LTL checked through the tableau
// product (Section 8) and the CTL* fragment of Section 7, plus the
// rewriting of universal path quantifiers into the existential basis
// {EX, EU, EG} that the symbolic algorithms operate on. CTL is the
// fragment where a path quantifier heads every temporal operator, LTL
// the fragment with no quantifier; each logic has its own parse entry.
package ctl

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates Formula nodes.
type Kind int

// Formula node kinds. The first group is propositional, the second the
// existential temporal basis, the third the universal and derived
// abbreviations that Existential rewrites away, and the last the LTL
// path operators, which no CTL formula holds: X (next), U (until), R
// (release), W (weak until) and the abbreviations G (globally) and F
// (finally).
const (
	KTrue Kind = iota
	KFalse
	KAtom // boolean atomic proposition, by name
	KEq   // Name = Value over a finite-domain variable
	KNeq  // Name != Value
	KNot
	KAnd
	KOr
	KImp
	KIff

	KEX
	KEU // E[L U R]
	KEG

	KAX
	KAU // A[L U R]
	KAG
	KEF
	KAF

	KX
	KU // L U R
	KR // L R R: R holds up to and including the first L∧R point, or forever
	KW // L W R: L U R, or L forever
	KG
	KF
)

func (k Kind) String() string {
	switch k {
	case KTrue:
		return "true"
	case KFalse:
		return "false"
	case KAtom:
		return "atom"
	case KEq:
		return "="
	case KNeq:
		return "!="
	case KNot:
		return "!"
	case KAnd:
		return "&"
	case KOr:
		return "|"
	case KImp:
		return "->"
	case KIff:
		return "<->"
	case KEX:
		return "EX"
	case KEU:
		return "EU"
	case KEG:
		return "EG"
	case KAX:
		return "AX"
	case KAU:
		return "AU"
	case KAG:
		return "AG"
	case KEF:
		return "EF"
	case KAF:
		return "AF"
	case KX:
		return "X"
	case KU:
		return "U"
	case KR:
		return "R"
	case KW:
		return "W"
	case KG:
		return "G"
	case KF:
		return "F"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Formula is a formula node of any of the three logics. Formulas are
// immutable after construction; helpers below build them.
type Formula struct {
	Kind  Kind
	Name  string // KAtom, KEq, KNeq: variable name
	Value string // KEq, KNeq: right-hand constant
	L, R  *Formula
}

// Constructors.

// True is the constant true formula.
func True() *Formula { return &Formula{Kind: KTrue} }

// False is the constant false formula.
func False() *Formula { return &Formula{Kind: KFalse} }

// Atom is the atomic proposition named name.
func Atom(name string) *Formula { return &Formula{Kind: KAtom, Name: name} }

// Eq is the atomic proposition "name = value" over a finite-domain
// variable.
func Eq(name, value string) *Formula { return &Formula{Kind: KEq, Name: name, Value: value} }

// Neq is the atomic proposition "name != value".
func Neq(name, value string) *Formula { return &Formula{Kind: KNeq, Name: name, Value: value} }

// Not negates f.
func Not(f *Formula) *Formula { return &Formula{Kind: KNot, L: f} }

// And conjoins l and r.
func And(l, r *Formula) *Formula { return &Formula{Kind: KAnd, L: l, R: r} }

// Or disjoins l and r.
func Or(l, r *Formula) *Formula { return &Formula{Kind: KOr, L: l, R: r} }

// Imp is l -> r.
func Imp(l, r *Formula) *Formula { return &Formula{Kind: KImp, L: l, R: r} }

// Iff is l <-> r.
func Iff(l, r *Formula) *Formula { return &Formula{Kind: KIff, L: l, R: r} }

// EX: f holds in some successor state.
func EX(f *Formula) *Formula { return &Formula{Kind: KEX, L: f} }

// EU: E[l U r] — along some path, l holds until r does.
func EU(l, r *Formula) *Formula { return &Formula{Kind: KEU, L: l, R: r} }

// EG: along some path f holds globally.
func EG(f *Formula) *Formula { return &Formula{Kind: KEG, L: f} }

// EF: along some path f eventually holds.
func EF(f *Formula) *Formula { return &Formula{Kind: KEF, L: f} }

// AX: f holds in every successor state.
func AX(f *Formula) *Formula { return &Formula{Kind: KAX, L: f} }

// AU: A[l U r] — along every path, l holds until r does.
func AU(l, r *Formula) *Formula { return &Formula{Kind: KAU, L: l, R: r} }

// AG: along every path f holds globally.
func AG(f *Formula) *Formula { return &Formula{Kind: KAG, L: f} }

// AF: along every path f eventually holds.
func AF(f *Formula) *Formula { return &Formula{Kind: KAF, L: f} }

// X: f holds at the next position of the path.
func X(f *Formula) *Formula { return &Formula{Kind: KX, L: f} }

// U: l holds until r does, and r eventually does.
func U(l, r *Formula) *Formula { return &Formula{Kind: KU, L: l, R: r} }

// R: r holds up to and including the first position where l also holds,
// or forever if l never does (the dual of U).
func R(l, r *Formula) *Formula { return &Formula{Kind: KR, L: l, R: r} }

// W: l holds until r does, or l holds forever (weak until).
func W(l, r *Formula) *Formula { return &Formula{Kind: KW, L: l, R: r} }

// G: f holds at every position of the path.
func G(f *Formula) *Formula { return &Formula{Kind: KG, L: f} }

// F: f holds at some position of the path.
func F(f *Formula) *Formula { return &Formula{Kind: KF, L: f} }

// AndN folds And over fs; True when empty.
func AndN(fs ...*Formula) *Formula {
	if len(fs) == 0 {
		return True()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = And(out, f)
	}
	return out
}

// OrN folds Or over fs; False when empty.
func OrN(fs ...*Formula) *Formula {
	if len(fs) == 0 {
		return False()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = Or(out, f)
	}
	return out
}

// precedence for printing: higher binds tighter. The binary path
// operators sit between & and the unary operators, matching the parser.
func (f *Formula) prec() int {
	switch f.Kind {
	case KIff:
		return 1
	case KImp:
		return 2
	case KOr:
		return 3
	case KAnd:
		return 4
	case KU, KR, KW:
		return 5
	case KNot, KEX, KEG, KAX, KAG, KEF, KAF, KX, KG, KF:
		return 6
	default:
		return 7
	}
}

// String renders f in the concrete syntax its parse entry (Parse or
// ParseLTL) accepts.
func (f *Formula) String() string {
	var sb strings.Builder
	f.write(&sb, 0)
	return sb.String()
}

func (f *Formula) write(sb *strings.Builder, outer int) {
	p := f.prec()
	if p < outer {
		sb.WriteByte('(')
	}
	switch f.Kind {
	case KTrue:
		sb.WriteString("true")
	case KFalse:
		sb.WriteString("false")
	case KAtom:
		// An atom literally named X, G or F would be re-read as a prefix
		// operator when followed by a formula; parentheses keep String()
		// round-trippable.
		switch f.Name {
		case "X", "G", "F":
			sb.WriteByte('(')
			sb.WriteString(f.Name)
			sb.WriteByte(')')
		default:
			sb.WriteString(f.Name)
		}
	case KEq:
		fmt.Fprintf(sb, "%s = %s", f.Name, f.Value)
	case KNeq:
		fmt.Fprintf(sb, "%s != %s", f.Name, f.Value)
	case KNot:
		sb.WriteByte('!')
		f.L.write(sb, p)
	case KAnd:
		f.L.write(sb, p)
		sb.WriteString(" & ")
		f.R.write(sb, p+1)
	case KOr:
		f.L.write(sb, p)
		sb.WriteString(" | ")
		f.R.write(sb, p+1)
	case KImp:
		f.L.write(sb, p+1)
		sb.WriteString(" -> ")
		f.R.write(sb, p)
	case KIff:
		f.L.write(sb, p+1)
		sb.WriteString(" <-> ")
		f.R.write(sb, p+1)
	case KEX, KEG, KAX, KAG, KEF, KAF, KX, KG, KF:
		sb.WriteString(f.Kind.String())
		sb.WriteByte(' ')
		f.L.write(sb, p)
	case KU, KR, KW:
		f.L.write(sb, p+1)
		sb.WriteByte(' ')
		sb.WriteString(f.Kind.String())
		sb.WriteByte(' ')
		f.R.write(sb, p) // right associative
	case KEU, KAU:
		sb.WriteString(f.Kind.String()[:1]) // the quantifier, E or A
		sb.WriteString(" [")
		f.L.writeOperand(sb)
		sb.WriteString(" U ")
		f.R.writeOperand(sb)
		sb.WriteByte(']')
	}
	if p < outer {
		sb.WriteByte(')')
	}
}

// writeOperand writes an operand of E [ … ] or A [ … ]. At the top level
// of one the parser does not read U, R or W as operators, so an operand
// with such a node among its connectives is parenthesized.
func (f *Formula) writeOperand(sb *strings.Builder) {
	if !untilOnSpine(f) {
		f.write(sb, 0)
		return
	}
	sb.WriteByte('(')
	f.write(sb, 0)
	sb.WriteByte(')')
}

// untilOnSpine reports whether a U, R or W node is reachable from f
// through binary connectives alone.
func untilOnSpine(f *Formula) bool {
	switch f.Kind {
	case KU, KR, KW:
		return true
	case KAnd, KOr, KImp, KIff:
		return untilOnSpine(f.L) || untilOnSpine(f.R)
	}
	return false
}

// Equal reports structural equality.
func Equal(a, b *Formula) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Value != b.Value {
		return false
	}
	return Equal(a.L, b.L) && Equal(a.R, b.R)
}

// Atoms returns the sorted set of atom/variable names appearing in f.
func Atoms(f *Formula) []string {
	set := map[string]bool{}
	var walk func(*Formula)
	walk = func(g *Formula) {
		if g == nil {
			return
		}
		if g.Kind == KAtom || g.Kind == KEq || g.Kind == KNeq {
			set[g.Name] = true
		}
		walk(g.L)
		walk(g.R)
	}
	walk(f)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of nodes in f.
func Size(f *Formula) int {
	if f == nil {
		return 0
	}
	return 1 + Size(f.L) + Size(f.R)
}

// IsPropositional reports whether f contains no temporal operators.
func IsPropositional(f *Formula) bool {
	if f == nil {
		return true
	}
	if f.Kind >= KEX { // every kind from KEX on is temporal
		return false
	}
	return IsPropositional(f.L) && IsPropositional(f.R)
}

// IsCTL reports whether f holds no LTL path operator, that is whether
// a path quantifier heads every temporal operator.
func IsCTL(f *Formula) bool { return pathOp(f) == nil }

// pathOp returns the first LTL path operator (the kinds from KX on) of
// f in preorder, or nil.
func pathOp(f *Formula) *Formula {
	if f == nil || f.Kind >= KX {
		return f
	}
	if g := pathOp(f.L); g != nil {
		return g
	}
	return pathOp(f.R)
}
