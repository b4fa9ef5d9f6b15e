package smv

import (
	"strconv"
	"strings"

	"repro/internal/ctl"
	"repro/internal/ltl"
)

// ParseModule parses SMV source — possibly containing several MODULE
// definitions — and returns the hierarchy flattened into a single
// module rooted at main (see flatten.go).
func ParseModule(src string) (*Module, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return prog.Flatten()
}

// MustParseModule parses or panics; for tests and embedded models.
func MustParseModule(src string) *Module {
	m, err := ParseModule(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokKind) bool {
	return p.cur().kind == k
}
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tIdent && p.cur().text == kw
}
func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, errAt(p.cur(), "expected %s, found %s", tokNames[k], p.cur())
	}
	return p.next(), nil
}
func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return errAt(p.cur(), "expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

// sectionKeywords end a declaration section.
var sectionKeywords = map[string]bool{
	"MODULE": true, "VAR": true, "ASSIGN": true, "DEFINE": true,
	"INIT": true, "TRANS": true, "INVAR": true, "FAIRNESS": true,
	"SPEC": true, "CTLSPEC": true, "LTLSPEC": true,
}

// oneModule parses a single MODULE definition, stopping before the next
// MODULE keyword or EOF.
func (p *parser) oneModule() (*Module, error) {
	if err := p.expectKeyword("MODULE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name.text}
	if p.at(tLParen) {
		p.next()
		for {
			param, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, param.text)
			if p.at(tComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
	}
	if m.Name == "main" && len(m.Params) > 0 {
		return nil, errAt(name, "MODULE main cannot take parameters")
	}
	for !p.at(tEOF) && !p.atKeyword("MODULE") {
		t := p.cur()
		if t.kind != tIdent {
			return nil, errAt(t, "expected section keyword, found %s", t)
		}
		switch t.text {
		case "VAR":
			p.next()
			if err := p.varSection(m); err != nil {
				return nil, err
			}
		case "ASSIGN":
			p.next()
			if err := p.assignSection(m); err != nil {
				return nil, err
			}
		case "DEFINE":
			p.next()
			if err := p.defineSection(m); err != nil {
				return nil, err
			}
		case "INIT", "TRANS", "INVAR", "FAIRNESS":
			p.next()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if p.at(tSemi) {
				p.next()
			}
			switch t.text {
			case "INIT":
				m.Inits = append(m.Inits, e)
			case "TRANS":
				m.Trans = append(m.Trans, e)
			case "INVAR":
				m.Invars = append(m.Invars, e)
			case "FAIRNESS":
				m.Fairness = append(m.Fairness, e)
			}
		case "SPEC", "CTLSPEC":
			p.next()
			spec, err := p.spec()
			if err != nil {
				return nil, err
			}
			m.Specs = append(m.Specs, spec)
		case "LTLSPEC":
			p.next()
			spec, err := p.ltlSpec()
			if err != nil {
				return nil, err
			}
			m.LTLSpecs = append(m.LTLSpecs, spec)
		default:
			return nil, errAt(t, "unknown section %q", t.text)
		}
	}
	return m, nil
}

func (p *parser) varSection(m *Module) error {
	for p.at(tIdent) && !sectionKeywords[p.cur().text] {
		name := p.next()
		if _, err := p.expect(tColon); err != nil {
			return err
		}
		typ, err := p.typeDecl()
		if err != nil {
			return err
		}
		if _, err := p.expect(tSemi); err != nil {
			return err
		}
		m.Vars = append(m.Vars, &VarDecl{Name: name.text, Type: typ, line: name.line})
	}
	return nil
}

func (p *parser) typeDecl() (*Type, error) {
	t := p.cur()
	switch {
	case p.atKeyword("boolean"):
		p.next()
		return &Type{Kind: TypeBool}, nil
	case p.at(tIdent):
		// module instantiation: [process] name, optionally with (arg, ...)
		isProcess := false
		if p.atKeyword("process") {
			p.next()
			isProcess = true
			if !p.at(tIdent) {
				return nil, errAt(p.cur(), "expected module name after 'process'")
			}
		}
		name := p.next()
		typ := &Type{Kind: TypeInstance, Module: name.text, IsProcess: isProcess}
		if p.at(tLParen) {
			p.next()
			for {
				arg, err := p.expr()
				if err != nil {
					return nil, err
				}
				typ.Args = append(typ.Args, arg)
				if p.at(tComma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
		}
		return typ, nil
	case p.at(tLBrace):
		p.next()
		var vals []string
		seen := map[string]bool{}
		for {
			v, err := p.expect(tIdent)
			if err != nil {
				return nil, err
			}
			// A repeated symbol would get a second code that prints as the
			// symbol but fails every comparison with it.
			if seen[v.text] {
				return nil, errAt(v, "enum symbol %s repeated", v.text)
			}
			if len(vals) == maxDomainValues {
				return nil, errAt(v, "enum has more than %d symbols", maxDomainValues)
			}
			seen[v.text] = true
			vals = append(vals, v.text)
			if p.at(tComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRBrace); err != nil {
			return nil, err
		}
		return &Type{Kind: TypeEnum, Enum: vals}, nil
	case p.at(tNumber):
		lo := p.next()
		if _, err := p.expect(tDotDot); err != nil {
			return nil, err
		}
		hi, err := p.expect(tNumber)
		if err != nil {
			return nil, err
		}
		loV, err := intLit(lo)
		if err != nil {
			return nil, err
		}
		hiV, err := intLit(hi)
		if err != nil {
			return nil, err
		}
		if hiV < loV {
			return nil, errAt(hi, "empty range %d..%d", loV, hiV)
		}
		// The bound is non-negative, so the difference cannot overflow.
		if hiV-loV >= maxDomainValues {
			return nil, errAt(hi, "range %d..%d has more than %d values", loV, hiV, maxDomainValues)
		}
		return &Type{Kind: TypeRange, Lo: loV, Hi: hiV}, nil
	default:
		return nil, errAt(t, "expected type, found %s", t)
	}
}

// maxDomainValues caps the size of a range or enum type. Compiling a
// domain costs time quadratic in its size, and a huge one exhausts
// memory outright; every shipped or generated model's domains have at
// most 16 values.
const maxDomainValues = 4096

// intLit converts a number token, rejecting one that does not fit in an
// int.
func intLit(t token) (int, error) {
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, errAt(t, "number %s does not fit in an int", t.text)
	}
	return v, nil
}

func (p *parser) assignSection(m *Module) error {
	for p.at(tIdent) && !sectionKeywords[p.cur().text] {
		kw := p.next()
		var kind AssignKind
		switch kw.text {
		case "init":
			kind = AssignInit
		case "next":
			kind = AssignNext
		default:
			return errAt(kw, "expected init(v) or next(v) in ASSIGN, found %q", kw.text)
		}
		if _, err := p.expect(tLParen); err != nil {
			return err
		}
		v, err := p.expect(tIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tRParen); err != nil {
			return err
		}
		if _, err := p.expect(tAssign); err != nil {
			return err
		}
		rhs, err := p.expr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tSemi); err != nil {
			return err
		}
		m.Assigns = append(m.Assigns, &Assign{Kind: kind, Var: v.text, RHS: rhs, line: kw.line})
	}
	return nil
}

func (p *parser) defineSection(m *Module) error {
	for p.at(tIdent) && !sectionKeywords[p.cur().text] {
		name := p.next()
		if _, err := p.expect(tAssign); err != nil {
			return err
		}
		body, err := p.expr()
		if err != nil {
			return err
		}
		if _, err := p.expect(tSemi); err != nil {
			return err
		}
		m.Defines = append(m.Defines, &Define{Name: name.text, Body: body, line: name.line})
	}
	return nil
}

// specSource captures the raw formula text of a specification section:
// token texts joined by spaces up to ';' (or a section keyword) at
// bracket depth zero.
func (p *parser) specSource() string {
	var parts []string
	depth := 0
	for !p.at(tEOF) {
		t := p.cur()
		if t.kind == tSemi && depth == 0 {
			p.next()
			break
		}
		if t.kind == tIdent && depth == 0 && sectionKeywords[t.text] {
			break
		}
		switch t.kind {
		case tLParen, tLBracket:
			depth++
		case tRParen, tRBracket:
			depth--
		}
		parts = append(parts, t.text)
		p.next()
	}
	return strings.Join(parts, " ")
}

// spec captures the raw CTL formula text until ';' (or a section
// keyword) and parses it with the ctl parser.
func (p *parser) spec() (*Spec, error) {
	start := p.cur()
	src := p.specSource()
	if src == "" {
		return nil, errAt(start, "empty SPEC")
	}
	f, err := ctl.Parse(src)
	if err != nil {
		return nil, errAt(start, "SPEC %q: %v", src, err)
	}
	return &Spec{Source: src, Formula: f, line: start.line}, nil
}

// ltlSpec is spec for LTLSPEC sections, parsed with the ltl parser.
func (p *parser) ltlSpec() (*LTLSpec, error) {
	start := p.cur()
	src := p.specSource()
	if src == "" {
		return nil, errAt(start, "empty LTLSPEC")
	}
	f, err := ltl.Parse(src)
	if err != nil {
		return nil, errAt(start, "LTLSPEC %q: %v", src, err)
	}
	return &LTLSpec{Source: src, Formula: f, line: start.line}, nil
}

// Expression grammar (precedence climbing):
//
//	iff  := imp ('<->' imp)*
//	imp  := or ('->' imp)?
//	or   := and ('|' and)*
//	and  := cmp ('&' cmp)*
//	cmp  := sum (('='|'!='|'<'|'<='|'>'|'>=') sum)?
//	sum  := prod (('+'|'-') prod)*
//	prod := unary (('*'|'/'|'mod') unary)*
//	unary:= '!' unary | '-' unary | atom
//	atom := '(' expr ')' | case..esac | '{' list '}' | next '(' id ')'
//	      | TRUE | FALSE | number | ident
func (p *parser) expr() (Expr, error) { return p.iffExpr() }

func (p *parser) iffExpr() (Expr, error) {
	l, err := p.impExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tIff) {
		op := p.next()
		r, err := p.impExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: tIff, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) impExpr() (Expr, error) {
	l, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.at(tImp) {
		op := p.next()
		r, err := p.impExpr()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: tImp, L: l, R: r, tok: op}, nil
	}
	return l, nil
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tOr) {
		op := p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: tOr, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tAnd) {
		op := p.next()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: tAnd, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.unionExpr()
	if err != nil {
		return nil, err
	}
	if p.atKeyword("in") {
		op := p.next()
		r, err := p.unionExpr()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: tIn, L: l, R: r, tok: op}, nil
	}
	switch p.cur().kind {
	case tEq, tNeq, tLt, tLe, tGt, tGe:
		op := p.next()
		r, err := p.unionExpr()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op.kind, L: l, R: r, tok: op}, nil
	}
	return l, nil
}

// unionExpr parses set unions: sum ('union' sum)*.
func (p *parser) unionExpr() (Expr, error) {
	l, err := p.sumExpr()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("union") {
		op := p.next()
		r, err := p.sumExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: tUnion, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) sumExpr() (Expr, error) {
	l, err := p.prodExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tPlus) || p.at(tMinus) {
		op := p.next()
		r, err := p.prodExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op.kind, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) prodExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tStar) || p.at(tSlash) || p.atKeyword("mod") {
		op := p.next()
		kind := op.kind
		if op.kind == tIdent {
			kind = tMod
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: kind, L: l, R: r, tok: op}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNot:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: tNot, X: x, tok: t}, nil
	case tMinus:
		p.next()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: tMinus, X: x, tok: t}, nil
	}
	return p.atomExpr()
}

func (p *parser) atomExpr() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tLBrace:
		p.next()
		var elems []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.at(tComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRBrace); err != nil {
			return nil, err
		}
		return &SetLit{Elems: elems, tok: t}, nil
	case tNumber:
		p.next()
		v, err := intLit(t)
		if err != nil {
			return nil, err
		}
		return &Num{Val: v, tok: t}, nil
	case tIdent:
		switch t.text {
		case "TRUE":
			p.next()
			return &BoolLit{Val: true, tok: t}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Val: false, tok: t}, nil
		case "case":
			return p.caseExpr()
		case "next":
			if p.toks[p.pos+1].kind == tLParen {
				p.next()
				p.next()
				v, err := p.expect(tIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tRParen); err != nil {
					return nil, err
				}
				return &NextRef{Name: v.text, tok: t}, nil
			}
		}
		p.next()
		return &Ident{Name: t.text, tok: t}, nil
	}
	return nil, errAt(t, "unexpected %s in expression", t)
}

func (p *parser) caseExpr() (Expr, error) {
	t := p.next() // 'case'
	ce := &CaseExpr{tok: t}
	for !p.atKeyword("esac") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tColon); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		ce.Conds = append(ce.Conds, cond)
		ce.Vals = append(ce.Vals, val)
	}
	p.next() // esac
	if len(ce.Conds) == 0 {
		return nil, errAt(t, "empty case expression")
	}
	return ce, nil
}
