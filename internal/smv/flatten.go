package smv

import (
	"fmt"
	"strings"
)

// Hierarchical modules. Real SMV models are structured as parameterized
// modules instantiated from MODULE main:
//
//	MODULE counter(tick)
//	VAR n : 0..3;
//	ASSIGN next(n) := case tick : (n + 1) mod 4; TRUE : n; esac;
//	DEFINE wrap := n = 3 & tick;
//
//	MODULE main
//	VAR t : boolean; c0 : counter(t); c1 : counter(c0.wrap);
//	SPEC AG (c1.n = 3 -> ...)
//
// Flatten instantiates the hierarchy into a single flat module by
// prefixing instance-local names with the instance path ("c0.n") and
// substituting actual parameter expressions (evaluated in the caller's
// scope) for formal parameters. The flat module then compiles through
// the ordinary single-module pipeline; dotted identifiers are ordinary
// identifiers to the lexer and the CTL parser.

// Program is a set of parsed modules indexed by name.
type Program map[string]*Module

// ParseProgram parses source containing one or more MODULE definitions.
func ParseProgram(src string) (Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := Program{}
	for !p.at(tEOF) {
		m, err := p.oneModule()
		if err != nil {
			return nil, err
		}
		if prog[m.Name] != nil {
			return nil, &Error{Msg: fmt.Sprintf("module %q defined twice", m.Name)}
		}
		prog[m.Name] = m
	}
	if prog["main"] == nil {
		return nil, &Error{Msg: "no MODULE main"}
	}
	return prog, nil
}

// schedulerVar is the fresh variable Flatten introduces when the model
// declares `process` instances: it ranges over {main, <process paths>}
// and selects which process's next-assignments fire this step
// (asynchronous interleaving semantics). Inside a process body the
// identifier `running` denotes "the scheduler picked this process".
const schedulerVar = "_running"

// Flatten instantiates the hierarchy rooted at main into a single flat
// module.
func (prog Program) Flatten() (*Module, error) {
	flat := &Module{Name: "main"}
	fl := &flattener{prog: prog}
	err := fl.instantiate(prog["main"], "", nil, "", flat, map[string]bool{"main": true})
	if err != nil {
		return nil, err
	}
	// Specs live only on main and are copied verbatim (their atoms are
	// already fully-qualified dotted names).
	flat.Specs = prog["main"].Specs
	flat.LTLSpecs = prog["main"].LTLSpecs

	// Merge process-conditioned next-assignments per target variable:
	//   next(v) := case _running = p1 : rhs1; _running = p2 : rhs2;
	//              TRUE : v; esac;
	merged := map[string]*CaseExpr{}
	var order []string
	for _, pa := range fl.procAssigns {
		ce, ok := merged[pa.target]
		if !ok {
			ce = &CaseExpr{}
			merged[pa.target] = ce
			order = append(order, pa.target)
		}
		guard := &Binary{Op: tEq, L: &Ident{Name: schedulerVar}, R: &Ident{Name: pa.proc}}
		ce.Conds = append(ce.Conds, guard)
		ce.Vals = append(ce.Vals, pa.rhs)
	}
	for _, target := range order {
		ce := merged[target]
		ce.Conds = append(ce.Conds, &BoolLit{Val: true})
		ce.Vals = append(ce.Vals, &Ident{Name: target})
		flat.Assigns = append(flat.Assigns, &Assign{Kind: AssignNext, Var: target, RHS: ce})
	}

	if len(fl.processes) > 0 {
		for _, v := range flat.Vars {
			if v.Name == schedulerVar {
				return nil, &Error{Msg: fmt.Sprintf("variable name %q is reserved for the process scheduler", schedulerVar)}
			}
		}
		flat.Vars = append(flat.Vars, &VarDecl{
			Name: schedulerVar,
			Type: &Type{Kind: TypeEnum, Enum: append([]string{"main"}, fl.processes...)},
		})
		flat.Processes = fl.processes
	}
	if len(flat.Vars) == 0 {
		return nil, &Error{Msg: "model declares no state variables"}
	}
	return flat, nil
}

// flattener carries cross-instance flattening state.
type flattener struct {
	prog      Program
	processes []string // process instance paths, in declaration order

	// procAssigns collects next-assignments made inside processes; they
	// are merged per target variable after instantiation (several
	// processes may drive the same shared variable, e.g. a semaphore
	// passed by parameter — the scheduler makes the guards disjoint).
	procAssigns []procAssign
}

type procAssign struct {
	target string // fully-qualified variable name
	proc   string // process path guarding the assignment
	rhs    Expr   // already rewritten into the flat namespace
	line   int
}

// scope describes one instantiation frame.
type scope struct {
	mod    *Module
	prefix string          // "" for main, "c0." for instance c0, nested "c0.sub."
	bind   map[string]Expr // formal parameter -> caller-scope expression
	locals map[string]bool // local var/define/instance names
	proc   string          // enclosing process path ("" = synchronous/main)
}

func (fl *flattener) instantiate(mod *Module, prefix string, bind map[string]Expr, proc string, flat *Module, inProgress map[string]bool) error {
	prog := fl.prog
	sc := &scope{mod: mod, prefix: prefix, bind: bind, locals: map[string]bool{}, proc: proc}
	for _, v := range mod.Vars {
		sc.locals[v.Name] = true
	}
	for _, d := range mod.Defines {
		sc.locals[d.Name] = true
	}

	// Declarations and sub-instances.
	for _, v := range mod.Vars {
		if v.Type.Kind != TypeInstance {
			flat.Vars = append(flat.Vars, &VarDecl{
				Name: prefix + v.Name,
				Type: v.Type,
				line: v.line,
			})
			continue
		}
		sub := prog[v.Type.Module]
		if sub == nil {
			return &Error{Line: v.line, Msg: fmt.Sprintf("unknown module %q", v.Type.Module)}
		}
		if inProgress[v.Type.Module] {
			return &Error{Line: v.line, Msg: fmt.Sprintf("recursive instantiation of module %q", v.Type.Module)}
		}
		if len(v.Type.Args) != len(sub.Params) {
			return &Error{Line: v.line, Msg: fmt.Sprintf(
				"module %q takes %d parameter(s), got %d", v.Type.Module, len(sub.Params), len(v.Type.Args))}
		}
		subBind := map[string]Expr{}
		for i, formal := range sub.Params {
			arg, err := sc.rewrite(v.Type.Args[i])
			if err != nil {
				return err
			}
			subBind[formal] = arg
		}
		subProc := proc
		if v.Type.IsProcess {
			if proc != "" {
				return &Error{Line: v.line, Msg: "nested process instances are not supported"}
			}
			subProc = prefix + v.Name
			fl.processes = append(fl.processes, subProc)
		}
		inProgress[v.Type.Module] = true
		if err := fl.instantiate(sub, prefix+v.Name+".", subBind, subProc, flat, inProgress); err != nil {
			return err
		}
		delete(inProgress, v.Type.Module)
	}

	for _, a := range mod.Assigns {
		// Resolve the target: a local variable, or a formal parameter
		// bound to a (qualified) variable name — the SMV idiom for
		// processes driving a shared caller variable.
		target := prefix + a.Var
		if !sc.locals[a.Var] {
			bound, ok := bind[a.Var]
			if !ok {
				return &Error{Line: a.line, Msg: fmt.Sprintf("assignment to non-local %q", a.Var)}
			}
			id, okID := bound.(*Ident)
			if !okID {
				return &Error{Line: a.line,
					Msg: fmt.Sprintf("assignment to parameter %q, which is bound to a non-variable expression", a.Var)}
			}
			target = id.Name
		}
		rhs, err := sc.rewrite(a.RHS)
		if err != nil {
			return err
		}
		if a.Kind == AssignNext && proc != "" {
			// interleaving: the assignment fires only when the scheduler
			// picks this process; merged with other processes' drives of
			// the same variable after instantiation.
			fl.procAssigns = append(fl.procAssigns, procAssign{
				target: target, proc: proc, rhs: rhs, line: a.line,
			})
			continue
		}
		flat.Assigns = append(flat.Assigns, &Assign{
			Kind: a.Kind, Var: target, RHS: rhs, line: a.line,
		})
	}
	for _, d := range mod.Defines {
		body, err := sc.rewrite(d.Body)
		if err != nil {
			return err
		}
		flat.Defines = append(flat.Defines, &Define{Name: prefix + d.Name, Body: body, line: d.line})
	}
	copySection := func(src []Expr, dst *[]Expr) error {
		for _, e := range src {
			r, err := sc.rewrite(e)
			if err != nil {
				return err
			}
			*dst = append(*dst, r)
		}
		return nil
	}
	if err := copySection(mod.Inits, &flat.Inits); err != nil {
		return err
	}
	if err := copySection(mod.Trans, &flat.Trans); err != nil {
		return err
	}
	if err := copySection(mod.Invars, &flat.Invars); err != nil {
		return err
	}
	if err := copySection(mod.Fairness, &flat.Fairness); err != nil {
		return err
	}
	if prefix != "" && len(mod.Specs) > 0 {
		return &Error{Msg: fmt.Sprintf("module %q: SPEC is only allowed in main", mod.Name)}
	}
	if prefix != "" && len(mod.LTLSpecs) > 0 {
		return &Error{Msg: fmt.Sprintf("module %q: LTLSPEC is only allowed in main", mod.Name)}
	}
	return nil
}

// rewrite clones an expression, substituting formal parameters and
// prefixing local names.
func (sc *scope) rewrite(e Expr) (Expr, error) {
	switch x := e.(type) {
	case *Num, *BoolLit:
		return e, nil
	case *Ident:
		return sc.rewriteName(x.Name, x.tok, false)
	case *NextRef:
		r, err := sc.rewriteName(x.Name, x.tok, true)
		if err != nil {
			return nil, err
		}
		switch rr := r.(type) {
		case *NextRef:
			return rr, nil
		case *Ident:
			return &NextRef{Name: rr.Name, tok: x.tok}, nil
		default:
			return nil, errAt(x.tok, "next() of a parameter bound to a non-variable expression")
		}
	case *Unary:
		inner, err := sc.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, X: inner, tok: x.tok}, nil
	case *Binary:
		l, err := sc.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := sc.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r, tok: x.tok}, nil
	case *SetLit:
		out := &SetLit{tok: x.tok}
		for _, el := range x.Elems {
			r, err := sc.rewrite(el)
			if err != nil {
				return nil, err
			}
			out.Elems = append(out.Elems, r)
		}
		return out, nil
	case *CaseExpr:
		out := &CaseExpr{tok: x.tok}
		for i := range x.Conds {
			c, err := sc.rewrite(x.Conds[i])
			if err != nil {
				return nil, err
			}
			v, err := sc.rewrite(x.Vals[i])
			if err != nil {
				return nil, err
			}
			out.Conds = append(out.Conds, c)
			out.Vals = append(out.Vals, v)
		}
		return out, nil
	default:
		return nil, &Error{Msg: fmt.Sprintf("flatten: unhandled expression %T", e)}
	}
}

// runningExpr builds the "_running = <this process>" test.
func (sc *scope) runningExpr() Expr {
	return &Binary{Op: tEq, L: &Ident{Name: schedulerVar}, R: &Ident{Name: sc.proc}}
}

// rewriteName resolves a (possibly dotted) identifier in this scope.
func (sc *scope) rewriteName(name string, tok token, next bool) (Expr, error) {
	if name == "running" && sc.proc != "" {
		if next {
			return nil, errAt(tok, "next(running) is not supported")
		}
		return sc.runningExpr(), nil
	}
	head := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		head = name[:i]
	}
	if sub, ok := sc.bind[head]; ok {
		if head != name {
			// parameter used as an instance handle: param.x — only legal
			// when the argument was a plain (possibly dotted) name.
			id, okID := sub.(*Ident)
			if !okID {
				return nil, errAt(tok, "cannot select %q from non-name parameter %q", name[len(head)+1:], head)
			}
			full := id.Name + name[len(head):]
			if next {
				return &NextRef{Name: full, tok: tok}, nil
			}
			return &Ident{Name: full, tok: tok}, nil
		}
		if next {
			id, okID := sub.(*Ident)
			if !okID {
				return nil, errAt(tok, "next(%s): parameter is bound to a non-variable expression", name)
			}
			return &NextRef{Name: id.Name, tok: tok}, nil
		}
		return sub, nil
	}
	if sc.locals[head] {
		if next {
			return &NextRef{Name: sc.prefix + name, tok: tok}, nil
		}
		return &Ident{Name: sc.prefix + name, tok: tok}, nil
	}
	// unknown head: enum literal or (in main) a global name — leave it.
	if next {
		return &NextRef{Name: name, tok: tok}, nil
	}
	return &Ident{Name: name, tok: tok}, nil
}
