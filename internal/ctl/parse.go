package ctl

import "fmt"

// One grammar serves CTL, LTL and the CTL* fragment of Section 7:
//
//	f ::= f '<->' f                    (lowest precedence)
//	    | f '->' f                     (right associative)
//	    | f '|' f
//	    | f '&' f
//	    | f 'U' f | f 'R' f | f 'W' f  (right associative)
//	    | '!' f | 'X' f | 'G' f | 'F' f
//	    | 'EX' f | 'EF' f | 'EG' f | 'AX' f | 'AF' f | 'AG' f
//	    | 'E' '[' f 'U' f ']' | 'A' '[' f 'U' f ']'
//	    | ident | ident '=' const | ident '!=' const
//	    | 'true' | 'false' | '(' f ')'
//
// Identifiers may contain letters, digits, '_' and '.'. Where the logics
// collide, the readings are:
//
//   - Inside E [ … ] and A [ … ] the operands are state formulas: U, R
//     and W are not operators at that level (parenthesize to nest one),
//     so E [p & q U r | s] is E [(p & q) U (r | s)].
//   - Elsewhere U, R and W bind tighter than '&' and take unary
//     operands: p U q & r is (p U q) & r, and G p U q is (G p) U q.
//   - X, G and F are operators only before the start of a formula ('!',
//     '(' or an identifier other than the U of an E [ … ]); elsewhere
//     they are atoms, so "F = 1" compares a variable named F. Where the
//     quantifier words are reserved, GF and FG abbreviate G F and F G
//     under the same rule.
//   - The quantifier words EX, EF, EG, AX, AF, AG, E and A are always
//     operators in CTL and in path formulas ("AG" alone is an error).
//     LTL reads them as identifiers, so an LTLSPEC may name a variable
//     E or AG.
//
// Every entry point rejects a formula over MaxFormulaSize with
// *TooLargeError.

// MaxFormulaSize bounds the number of nodes a formula may reach once the
// basis rewrites expand it (Existential for CTL, the tableau's negation
// normal form for LTL). The rewrites share the operands they copy, but
// the checker's memo keys, PushNegations, the tableau translation and
// the trace notes walk the result as a tree, so each level of nested
// <-> would double their work, and the memo keys make even a chain of
// EX cost quadratic time. At this bound the worst shape, a chain of
// 2047 EX, checks in under 0.1 s on mutex.smv and gives its
// counterexample in about 0.5 s; each doubling of the bound costs about
// 4x. The largest formula the repository builds itself expands to 53
// nodes.
const MaxFormulaSize = 2048

// TooLargeError is the error every parse entry returns for a formula
// that expands to more than MaxFormulaSize nodes or nests deeper than
// that.
type TooLargeError struct{}

func (*TooLargeError) Error() string {
	return fmt.Sprintf("ctl: formula too large: more than %d nodes once <->, A [ U ] and W are expanded",
		MaxFormulaSize)
}

// Parse parses a CTL formula: every temporal operator must be one of
// the quantified ones (EX … AG, E [ U ], A [ U ]).
func Parse(src string) (*Formula, error) {
	f, err := parse(src, true)
	if err != nil {
		return nil, err
	}
	if g := pathOp(f); g != nil {
		return nil, fmt.Errorf("ctl: path operator %s outside a path quantifier", g.Kind)
	}
	return f, nil
}

// ParseLTL parses an LTL formula. The quantifier words are identifiers
// here, so the result holds no path quantifier.
func ParseLTL(src string) (*Formula, error) { return parse(src, false) }

// ParsePath parses a CTL* path formula, with the quantifier words
// reserved and GF and FG read as G F and F G. It checks no fragment:
// package ctlstar recognises the Section 7 fragment from the tree's
// shape.
func ParsePath(src string) (*Formula, error) { return parse(src, true) }

// MustParse parses a CTL formula and panics on error; intended for
// tests and compile-time-constant specifications.
func MustParse(src string) *Formula { return must(Parse(src)) }

// MustParseLTL is ParseLTL, panicking on error.
func MustParseLTL(src string) *Formula { return must(ParseLTL(src)) }

func must(f *Formula, err error) *Formula {
	if err != nil {
		panic(err)
	}
	return f
}

func parse(src string, quantified bool) (*Formula, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, quantified: quantified}
	f, err := p.iff()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("ctl: unexpected %s after formula", p.cur())
	}
	if expandedSize(f) > MaxFormulaSize {
		return nil, &TooLargeError{}
	}
	return f, nil
}

// expandedSize counts, bottom up, the nodes f reaches once the basis
// rewrites expand it: <-> copies both operands, A [f U g] copies g
// three times and W copies its right operand. The count saturates just
// above MaxFormulaSize.
func expandedSize(f *Formula) int {
	if f == nil {
		return 0
	}
	l, r := expandedSize(f.L), expandedSize(f.R)
	n := 1 + l + r
	switch f.Kind {
	case KIff:
		n = 5 + 2*l + 2*r // (l ∧ r) ∨ (¬l ∧ ¬r)
	case KAU:
		n = 10 + l + 3*r // ¬E [¬r U ¬l ∧ ¬r] ∧ ¬EG ¬r
	case KW:
		n = 2 + l + 2*r // r R (l ∨ r)
	case KImp, KEF, KG, KF:
		n++ // ¬l ∨ r, E [true U l], false R l, true U l
	case KAX, KAF:
		n += 2 // ¬EX ¬l, ¬EG ¬l
	case KAG:
		n += 3 // ¬E [true U ¬l]
	}
	return min(n, MaxFormulaSize+1)
}

type parser struct {
	toks       []token
	pos        int
	quantified bool // quantifier words are operators; GF/FG abbreviate G F/F G
	bracket    bool // at the top level of an E [ … ] / A [ … ] operand
	depth      int  // nesting levels entered through sub
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, fmt.Errorf("ctl: expected %s, found %s", what, p.cur())
	}
	return p.next(), nil
}

// sub runs parse one nesting level down. Every level but a redundant
// parenthesis adds a node, so a formula nesting deeper than
// MaxFormulaSize is too large; failing before the recursion goes on
// bounds the parser's stack.
func (p *parser) sub(parse func() (*Formula, error)) (*Formula, error) {
	if p.depth >= MaxFormulaSize {
		return nil, &TooLargeError{}
	}
	p.depth++
	defer func() { p.depth-- }()
	return parse()
}

// group parses a parenthesized formula (bracket false) or an
// E [ … ] / A [ … ] operand (bracket true).
func (p *parser) group(bracket bool) (*Formula, error) {
	outer := p.bracket
	p.bracket = bracket
	defer func() { p.bracket = outer }()
	return p.sub(p.iff)
}

func (p *parser) iff() (*Formula, error) {
	l, err := p.imp()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tIff {
		p.next()
		r, err := p.imp()
		if err != nil {
			return nil, err
		}
		l = Iff(l, r)
	}
	return l, nil
}

func (p *parser) imp() (*Formula, error) {
	l, err := p.or()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tImp {
		p.next()
		r, err := p.sub(p.imp) // right associative
		if err != nil {
			return nil, err
		}
		return Imp(l, r), nil
	}
	return l, nil
}

func (p *parser) or() (*Formula, error) {
	l, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOr {
		p.next()
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		l = Or(l, r)
	}
	return l, nil
}

func (p *parser) and() (*Formula, error) {
	l, err := p.until()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tAnd {
		p.next()
		r, err := p.until()
		if err != nil {
			return nil, err
		}
		l = And(l, r)
	}
	return l, nil
}

// until parses the right-associative binary path operators U, R and W,
// which are not operators at the top level of a bracketed operand.
func (p *parser) until() (*Formula, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	if p.bracket || p.cur().kind != tIdent {
		return l, nil
	}
	var k Kind
	switch p.cur().text {
	case "U":
		k = KU
	case "R":
		k = KR
	case "W":
		k = KW
	default:
		return l, nil
	}
	p.next()
	r, err := p.sub(p.until) // right associative
	if err != nil {
		return nil, err
	}
	return &Formula{Kind: k, L: l, R: r}, nil
}

func (p *parser) unary() (*Formula, error) {
	t := p.cur()
	switch t.kind {
	case tNot:
		p.next()
		f, err := p.sub(p.unary)
		if err != nil {
			return nil, err
		}
		return Not(f), nil
	case tLParen:
		p.next()
		f, err := p.group(false)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil
	case tIdent:
		return p.identLed()
	}
	return nil, fmt.Errorf("ctl: unexpected %s", t)
}

// prefixOps builds the node of each prefix operator word; GF and FG
// nest two.
var prefixOps = map[string]func(*Formula) *Formula{
	"EX": EX, "EF": EF, "EG": EG, "AX": AX, "AF": AF, "AG": AG,
	"X": X, "G": G, "F": F,
	"GF": func(f *Formula) *Formula { return G(F(f)) },
	"FG": func(f *Formula) *Formula { return F(G(f)) },
}

// identLed handles everything that starts with an identifier: operator
// words, constants, and (in)equality atoms.
func (p *parser) identLed() (*Formula, error) {
	t := p.next()
	prefix := false
	switch t.text {
	case "true", "TRUE":
		return True(), nil
	case "false", "FALSE":
		return False(), nil
	case "EX", "EF", "EG", "AX", "AF", "AG":
		prefix = p.quantified
	case "X", "G", "F":
		prefix = p.startsFormula()
	case "GF", "FG":
		prefix = p.quantified && p.startsFormula()
	case "E", "A":
		if p.quantified {
			return p.quantifiedUntil(t.text == "E")
		}
	}
	if prefix {
		f, err := p.sub(p.unary)
		if err != nil {
			return nil, err
		}
		return prefixOps[t.text](f), nil
	}
	// plain atom, possibly followed by =/!= constant
	switch p.cur().kind {
	case tEq:
		p.next()
		v, err := p.constOperand()
		if err != nil {
			return nil, err
		}
		return Eq(t.text, v), nil
	case tNeq:
		p.next()
		v, err := p.constOperand()
		if err != nil {
			return nil, err
		}
		return Neq(t.text, v), nil
	}
	return Atom(t.text), nil
}

// startsFormula reports whether the current token can begin a formula,
// which makes a preceding X, G or F an operator. At the top level of a
// bracketed operand U is the separator, not an atom.
func (p *parser) startsFormula() bool {
	switch t := p.cur(); t.kind {
	case tNot, tLParen:
		return true
	case tIdent:
		return !p.bracket || t.text != "U"
	}
	return false
}

// quantifiedUntil parses the rest of E [l U r] (exists) or A [l U r].
func (p *parser) quantifiedUntil(exists bool) (*Formula, error) {
	if _, err := p.expect(tLBracket, "'['"); err != nil {
		return nil, err
	}
	l, err := p.group(true)
	if err != nil {
		return nil, err
	}
	t, err := p.expect(tIdent, "'U'")
	if err != nil {
		return nil, err
	}
	if t.text != "U" {
		return nil, fmt.Errorf("ctl: expected 'U' in until, found %q", t.text)
	}
	r, err := p.group(true)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRBracket, "']'"); err != nil {
		return nil, err
	}
	if exists {
		return EU(l, r), nil
	}
	return AU(l, r), nil
}

// constOperand parses the right-hand side of =/!=.
func (p *parser) constOperand() (string, error) {
	t := p.cur()
	if t.kind == tIdent || t.kind == tNumber {
		p.next()
		return t.text, nil
	}
	return "", fmt.Errorf("ctl: expected constant after comparison, found %s", t)
}
