package smv

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

// Expression evaluation: every expression becomes either a boolean state
// set (a single BDD) or a finite partition of the state space by value.

// eval evaluates an expression. allowNext permits next(v) references
// (TRANS sections and next-assignments RHS).
func (c *Compiled) eval(e Expr, allowNext bool) (*result, error) {
	m := c.S.M
	switch x := e.(type) {
	case *BoolLit:
		if x.Val {
			return &result{isBool: true, b: bdd.True}, nil
		}
		return &result{isBool: true, b: bdd.False}, nil
	case *Num:
		return &result{cases: []valCase{{v: Value{Kind: VInt, I: x.Val}, cond: bdd.True}}}, nil
	case *Ident:
		return c.evalIdent(x, allowNext)
	case *NextRef:
		if !allowNext {
			return nil, errAt(x.tok, "next(%s) is only allowed in TRANS and next-assignments", x.Name)
		}
		info := c.Vars[x.Name]
		if info == nil {
			return nil, errAt(x.tok, "next() of undeclared variable %q", x.Name)
		}
		if info.Decl.Type.Kind == TypeBool {
			return &result{isBool: true, b: c.encodeValue(info, 1, true)}, nil
		}
		return &result{cases: c.varCases(info, true)}, nil
	case *Unary:
		inner, err := c.eval(x.X, allowNext)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case tNot:
			b, err := asBool(m, inner, x.tok)
			if err != nil {
				return nil, err
			}
			return &result{isBool: true, b: m.Not(b)}, nil
		case tMinus:
			out := &result{}
			for _, vc := range inner.cases {
				if vc.v.Kind != VInt {
					return nil, errAt(x.tok, "unary minus needs an integer operand")
				}
				out.cases = mergeCase(m, out.cases, Value{Kind: VInt, I: -vc.v.I}, vc.cond)
			}
			if inner.isBool {
				return nil, errAt(x.tok, "unary minus needs an integer operand")
			}
			return out, nil
		}
		return nil, errAt(x.tok, "unknown unary operator")
	case *Binary:
		return c.evalBinary(x, allowNext)
	case *SetLit:
		out := &result{isSet: true}
		sawBool := false
		for _, el := range x.Elems {
			r, err := c.eval(el, allowNext)
			if err != nil {
				return nil, err
			}
			for _, vc := range toCases(m, r) {
				out.cases = append(out.cases, vc) // overlapping allowed
				if vc.v.Kind == VBool {
					sawBool = true
				}
			}
		}
		_ = sawBool
		return out, nil
	case *CaseExpr:
		return c.evalCase(x, allowNext)
	}
	return nil, &Error{Msg: fmt.Sprintf("unhandled expression %T", e)}
}

// evalBool evaluates an expression that must be boolean.
func (c *Compiled) evalBool(e Expr, allowNext bool) (bdd.Ref, error) {
	r, err := c.eval(e, allowNext)
	if err != nil {
		return bdd.False, err
	}
	return asBool(c.S.M, r, token{})
}

func (c *Compiled) evalIdent(x *Ident, allowNext bool) (*result, error) {
	if info := c.Vars[x.Name]; info != nil {
		if info.Decl.Type.Kind == TypeBool {
			return &result{isBool: true, b: c.encodeValue(info, 1, false)}, nil
		}
		return &result{cases: c.varCases(info, false)}, nil
	}
	if d := c.defines[x.Name]; d != nil {
		if r := c.defMemo[x.Name]; r != nil {
			return r, nil
		}
		if c.defBusy[x.Name] {
			return nil, errAt(x.tok, "cyclic DEFINE %q", x.Name)
		}
		c.defBusy[x.Name] = true
		r, err := c.eval(d.Body, false)
		c.defBusy[x.Name] = false
		if err != nil {
			return nil, err
		}
		// Spec-atom resolution and later evaluation read the memo long
		// after the compile, across collections and sifts.
		m := c.S.M
		if r.isBool {
			m.Protect(r.b)
		}
		for _, vc := range r.cases {
			m.Protect(vc.cond)
		}
		c.defMemo[x.Name] = r
		return r, nil
	}
	// Bare identifier: an enum literal (symbolic constant).
	return &result{cases: []valCase{{v: Value{Kind: VSym, S: x.Name}, cond: bdd.True}}}, nil
}

func (c *Compiled) evalBinary(x *Binary, allowNext bool) (*result, error) {
	m := c.S.M
	l, err := c.eval(x.L, allowNext)
	if err != nil {
		return nil, err
	}
	r, err := c.eval(x.R, allowNext)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case tAnd, tOr, tImp, tIff:
		lb, err := asBool(m, l, x.tok)
		if err != nil {
			return nil, err
		}
		rb, err := asBool(m, r, x.tok)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case tAnd:
			return &result{isBool: true, b: m.And(lb, rb)}, nil
		case tOr:
			return &result{isBool: true, b: m.Or(lb, rb)}, nil
		case tImp:
			return &result{isBool: true, b: m.Imp(lb, rb)}, nil
		default:
			return &result{isBool: true, b: m.Eq(lb, rb)}, nil
		}
	case tEq, tNeq, tLt, tLe, tGt, tGe:
		return c.evalCompare(x, l, r)
	case tPlus, tMinus, tStar, tSlash, tMod:
		return c.evalArith(x, l, r)
	case tIn:
		return c.evalIn(x, l, r)
	case tUnion:
		out := &result{isSet: true}
		out.cases = append(out.cases, toCases(m, l)...)
		out.cases = append(out.cases, toCases(m, r)...)
		return out, nil
	}
	return nil, errAt(x.tok, "unknown binary operator")
}

func (c *Compiled) evalCompare(x *Binary, l, r *result) (*result, error) {
	m := c.S.M
	if l.isSet || r.isSet {
		return nil, errAt(x.tok, "set expressions cannot be compared")
	}
	// boolean = boolean is equivalence; allow through case pairs too.
	if l.isBool && r.isBool {
		switch x.Op {
		case tEq:
			return &result{isBool: true, b: m.Eq(l.b, r.b)}, nil
		case tNeq:
			return &result{isBool: true, b: m.Xor(l.b, r.b)}, nil
		default:
			return nil, errAt(x.tok, "ordering on boolean operands")
		}
	}
	lc := toCases(m, l)
	rc := toCases(m, r)
	out := bdd.False
	for _, a := range lc {
		for _, b := range rc {
			cond := m.And(a.cond, b.cond)
			if cond == bdd.False {
				continue
			}
			holds, err := compareValues(x.Op, a.v, b.v, x.tok)
			if err != nil {
				return nil, err
			}
			if holds {
				out = m.Or(out, cond)
			}
		}
	}
	return &result{isBool: true, b: out}, nil
}

// evalIn computes set membership: the left value equals some member of
// the right (possibly nondeterministic set) expression under the
// respective conditions.
func (c *Compiled) evalIn(x *Binary, l, r *result) (*result, error) {
	m := c.S.M
	if l.isSet {
		return nil, errAt(x.tok, "left operand of 'in' cannot be a set")
	}
	out := bdd.False
	for _, a := range toCases(m, l) {
		for _, b := range toCases(m, r) {
			cond := m.And(a.cond, b.cond)
			if cond == bdd.False {
				continue
			}
			eq, err := compareValues(tEq, a.v, b.v, x.tok)
			if err != nil {
				return nil, err
			}
			if eq {
				out = m.Or(out, cond)
			}
		}
	}
	return &result{isBool: true, b: out}, nil
}

func compareValues(op tokKind, a, b Value, t token) (bool, error) {
	// Allow ints 0/1 to compare against booleans.
	if a.Kind == VBool && b.Kind == VInt {
		b = Value{Kind: VBool, B: b.I != 0}
	}
	if b.Kind == VBool && a.Kind == VInt {
		a = Value{Kind: VBool, B: a.I != 0}
	}
	switch op {
	case tEq:
		return a.equal(b), nil
	case tNeq:
		return !a.equal(b), nil
	}
	if a.Kind != VInt || b.Kind != VInt {
		return false, errAt(t, "ordering comparison needs integer operands (got %s, %s)", a, b)
	}
	switch op {
	case tLt:
		return a.I < b.I, nil
	case tLe:
		return a.I <= b.I, nil
	case tGt:
		return a.I > b.I, nil
	default:
		return a.I >= b.I, nil
	}
}

func (c *Compiled) evalArith(x *Binary, l, r *result) (*result, error) {
	m := c.S.M
	if l.isBool || r.isBool || l.isSet || r.isSet {
		return nil, errAt(x.tok, "arithmetic needs integer operands")
	}
	out := &result{}
	for _, a := range l.cases {
		for _, b := range r.cases {
			cond := m.And(a.cond, b.cond)
			if cond == bdd.False {
				continue
			}
			if a.v.Kind != VInt || b.v.Kind != VInt {
				return nil, errAt(x.tok, "arithmetic needs integer operands (got %s, %s)", a.v, b.v)
			}
			var v int
			switch x.Op {
			case tPlus:
				v = a.v.I + b.v.I
			case tMinus:
				v = a.v.I - b.v.I
			case tStar:
				v = a.v.I * b.v.I
			case tSlash:
				if b.v.I == 0 {
					return nil, errAt(x.tok, "division by zero")
				}
				v = a.v.I / b.v.I
			case tMod:
				if b.v.I == 0 {
					return nil, errAt(x.tok, "mod by zero")
				}
				v = ((a.v.I % b.v.I) + b.v.I) % b.v.I
			}
			out.cases = mergeCase(m, out.cases, Value{Kind: VInt, I: v}, cond)
		}
	}
	return out, nil
}

func (c *Compiled) evalCase(x *CaseExpr, allowNext bool) (*result, error) {
	m := c.S.M
	notPrev := bdd.True
	out := &result{}
	anyBool := false
	anyCases := false
	boolAcc := bdd.False
	covered := bdd.False
	for i := range x.Conds {
		cond, err := c.evalBool(x.Conds[i], allowNext)
		if err != nil {
			return nil, err
		}
		active := m.And(notPrev, cond)
		notPrev = m.And(notPrev, m.Not(cond))
		val, err := c.eval(x.Vals[i], allowNext)
		if err != nil {
			return nil, err
		}
		if val.isBool {
			anyBool = true
			boolAcc = m.Or(boolAcc, m.And(active, val.b))
		} else {
			anyCases = true
			if val.isSet {
				out.isSet = true
			}
			for _, vc := range val.cases {
				cnd := m.And(active, vc.cond)
				if cnd == bdd.False {
					continue
				}
				out.cases = mergeCase(m, out.cases, vc.v, cnd)
			}
		}
		covered = m.Or(covered, active)
	}
	if anyBool && anyCases {
		return nil, errAt(x.tok, "case branches mix boolean and value results")
	}
	if anyBool {
		// Uncovered states default to FALSE, mirroring NuSMV's
		// requirement of exhaustive cases; we are permissive here but
		// keep determinism.
		return &result{isBool: true, b: boolAcc}, nil
	}
	return out, nil
}

// asBool extracts a boolean BDD, converting 0/1-valued and TRUE/FALSE
// case results.
func asBool(m *bdd.Manager, r *result, t token) (bdd.Ref, error) {
	if r.isBool {
		return r.b, nil
	}
	if r.isSet {
		return bdd.False, errAt(t, "set expression used where a boolean is required")
	}
	out := bdd.False
	for _, vc := range r.cases {
		truthy := false
		switch vc.v.Kind {
		case VBool:
			truthy = vc.v.B
		case VInt:
			if vc.v.I != 0 && vc.v.I != 1 {
				return bdd.False, errAt(t, "value %s used where a boolean is required", vc.v)
			}
			truthy = vc.v.I == 1
		default:
			return bdd.False, errAt(t, "symbolic constant %q used where a boolean is required", vc.v.S)
		}
		if truthy {
			out = m.Or(out, vc.cond)
		}
	}
	return out, nil
}

// toCases views any result as value cases (booleans become TRUE/FALSE
// cases).
func toCases(m *bdd.Manager, r *result) []valCase {
	if !r.isBool {
		return r.cases
	}
	return []valCase{
		{v: Value{Kind: VBool, B: true}, cond: r.b},
		{v: Value{Kind: VBool, B: false}, cond: m.Not(r.b)},
	}
}

// mergeCase adds (v, cond) to cases, merging with an existing case of
// the same value.
func mergeCase(m *bdd.Manager, cases []valCase, v Value, cond bdd.Ref) []valCase {
	for i := range cases {
		if cases[i].v.equal(v) {
			cases[i].cond = m.Or(cases[i].cond, cond)
			return cases
		}
	}
	return append(cases, valCase{v: v, cond: cond})
}

// registerAtoms installs atom resolvers on the symbolic structure so
// that SPEC formulas can mention variables and DEFINEs.
func (c *Compiled) registerAtoms() error {
	m := c.S.M
	for _, name := range c.Order {
		info := c.Vars[name]
		if info.Decl.Type.Kind == TypeBool {
			c.S.RegisterAtom(name, c.encodeValue(info, 1, false))
			continue
		}
		c.S.RegisterEqAtom(name, func(value string) (bdd.Ref, error) {
			v, err := parseDomainValue(info, value)
			if err != nil {
				return bdd.False, err
			}
			idx := info.valueIndex(v)
			if idx < 0 {
				return bdd.False, fmt.Errorf("smv: %q is not in the domain of %q", value, info.Decl.Name)
			}
			return c.encodeValue(info, idx, false), nil
		})
	}
	// Declaration order, not map order: the order DEFINEs are built in
	// fixes their node numbering, and with it every lookup counter.
	for _, d := range c.Module.Defines {
		name := d.Name
		// DEFINEs act as boolean atoms and as eq-atoms when valued.
		// Evaluate through the memo (evalIdent), whose refs are
		// protected, so the eq-atom closure below can keep the case
		// slice.
		r, err := c.evalIdent(&Ident{Name: name}, false)
		if err != nil {
			return err
		}
		if r.isBool {
			c.S.RegisterAtom(name, r.b)
			continue
		}
		cases := r.cases
		c.S.RegisterEqAtom(name, func(value string) (bdd.Ref, error) {
			out := bdd.False
			for _, vc := range cases {
				if vc.v.String() == value ||
					(vc.v.Kind == VBool && boolName(vc.v.B) == value) {
					out = m.Or(out, vc.cond)
				}
			}
			return out, nil
		})
	}
	return nil
}

func boolName(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func parseDomainValue(info *VarInfo, s string) (Value, error) {
	switch info.Decl.Type.Kind {
	case TypeEnum:
		return Value{Kind: VSym, S: s}, nil
	case TypeRange:
		n, err := strconv.Atoi(s)
		if err != nil {
			return Value{}, fmt.Errorf("smv: %q is not an integer value for %q", s, info.Decl.Name)
		}
		return Value{Kind: VInt, I: n}, nil
	default:
		switch s {
		case "1", "true", "TRUE":
			return Value{Kind: VBool, B: true}, nil
		case "0", "false", "FALSE":
			return Value{Kind: VBool, B: false}, nil
		}
		return Value{}, fmt.Errorf("smv: %q is not a boolean value", s)
	}
}

// FormatStateByVars renders a state grouping the encoded bits back into
// declared variables.
func (c *Compiled) FormatStateByVars(st kripke.State) string {
	var b strings.Builder
	c.writeStateByVars(&b, st)
	return b.String()
}

// writeStateByVars appends FormatStateByVars's rendering of st to b.
func (c *Compiled) writeStateByVars(b *strings.Builder, st kripke.State) {
	for i, name := range c.Order {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(c.StateValue(st, name).String())
	}
}

// StateValue decodes the value of a declared variable in a state.
func (c *Compiled) StateValue(st kripke.State, name string) Value {
	info := c.Vars[name]
	idx := 0
	for b, bitPos := range info.Bits {
		if st[bitPos] {
			idx |= 1 << b
		}
	}
	if idx >= len(info.Values) {
		return Value{Kind: VSym, S: "?"}
	}
	return info.Values[idx]
}

// ResolveSpecAtoms verifies that every atom of a SPEC or LTLSPEC
// formula names a variable or DEFINE (returns the first error, if any).
func (c *Compiled) ResolveSpecAtoms(f *ctl.Formula) error {
	for _, a := range ctl.Atoms(f) {
		if c.Vars[a] == nil && c.defines[a] == nil {
			return fmt.Errorf("smv: spec mentions unknown identifier %q", a)
		}
	}
	return nil
}
