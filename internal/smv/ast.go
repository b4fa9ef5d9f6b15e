package smv

import (
	"fmt"
	"strings"

	"repro/internal/ctl"
)

// Module is one parsed MODULE (main or a parameterized submodule).
type Module struct {
	Name     string
	Params   []string
	Vars     []*VarDecl
	Assigns  []*Assign
	Defines  []*Define
	Inits    []Expr // INIT sections
	Trans    []Expr // TRANS sections (may mention next(v))
	Invars   []Expr // INVAR sections
	Fairness []Expr // FAIRNESS sections
	Specs    []*Spec
	LTLSpecs []*LTLSpec

	// Processes lists the process instance paths of a flattened program
	// (empty for synchronous models). When non-empty the compiler
	// installs a disjunctive partition, one component per scheduler
	// value, in place of the conjunctive clusters.
	Processes []string
}

// VarDecl declares one state variable.
type VarDecl struct {
	Name string
	Type *Type
	line int
}

// TypeKind discriminates variable types.
type TypeKind int

const (
	TypeBool TypeKind = iota
	TypeEnum
	TypeRange
	TypeInstance // a submodule instantiation, eliminated by Flatten
)

// Type is a variable's domain (or, before flattening, a module
// instantiation).
type Type struct {
	Kind      TypeKind
	Enum      []string // TypeEnum
	Lo, Hi    int      // TypeRange
	Module    string   // TypeInstance
	Args      []Expr   // TypeInstance
	IsProcess bool     // TypeInstance declared with the process keyword
}

func (t *Type) String() string {
	switch t.Kind {
	case TypeBool:
		return "boolean"
	case TypeEnum:
		return "{" + strings.Join(t.Enum, ", ") + "}"
	case TypeInstance:
		return t.Module + "(...)"
	default:
		return fmt.Sprintf("%d..%d", t.Lo, t.Hi)
	}
}

// AssignKind distinguishes init(v) := e from next(v) := e.
type AssignKind int

const (
	AssignInit AssignKind = iota
	AssignNext
)

// Assign is one ASSIGN clause.
type Assign struct {
	Kind AssignKind
	Var  string
	RHS  Expr
	line int
}

// Define is a DEFINE clause: a named expression macro.
type Define struct {
	Name string
	Body Expr
	line int
}

// Spec is a CTL specification with its source text.
type Spec struct {
	Source  string
	Formula *ctl.Formula
	line    int
}

// LTLSpec is an LTLSPEC declaration with its source text.
type LTLSpec struct {
	Source  string
	Formula *ctl.Formula
	line    int
}

// Expr is an SMV expression node.
type Expr interface {
	exprNode()
	String() string
}

// Ident references a variable, DEFINE or enum literal.
type Ident struct {
	Name string
	tok  token
}

// Num is an integer literal.
type Num struct {
	Val int
	tok token
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Val bool
	tok token
}

// NextRef is next(v), allowed in TRANS expressions.
type NextRef struct {
	Name string
	tok  token
}

// Unary is !e or -e.
type Unary struct {
	Op  tokKind
	X   Expr
	tok token
}

// Binary is a binary operator application.
type Binary struct {
	Op   tokKind
	L, R Expr
	tok  token
}

// SetLit is {e1, e2, ...}: a nondeterministic choice.
type SetLit struct {
	Elems []Expr
	tok   token
}

// CaseExpr is case c1 : e1; ...; esac.
type CaseExpr struct {
	Conds []Expr
	Vals  []Expr
	tok   token
}

func (*Ident) exprNode()    {}
func (*Num) exprNode()      {}
func (*BoolLit) exprNode()  {}
func (*NextRef) exprNode()  {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*SetLit) exprNode()   {}
func (*CaseExpr) exprNode() {}

func (e *Ident) String() string { return e.Name }
func (e *Num) String() string   { return fmt.Sprintf("%d", e.Val) }
func (e *BoolLit) String() string {
	if e.Val {
		return "TRUE"
	}
	return "FALSE"
}
func (e *NextRef) String() string { return "next(" + e.Name + ")" }
func (e *Unary) String() string   { return tokOpName(e.Op) + "(" + e.X.String() + ")" }
func (e *Binary) String() string {
	return "(" + e.L.String() + " " + tokOpName(e.Op) + " " + e.R.String() + ")"
}
func (e *SetLit) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("case ")
	for i := range e.Conds {
		sb.WriteString(e.Conds[i].String())
		sb.WriteString(" : ")
		sb.WriteString(e.Vals[i].String())
		sb.WriteString("; ")
	}
	sb.WriteString("esac")
	return sb.String()
}

func tokOpName(k tokKind) string {
	switch k {
	case tNot:
		return "!"
	case tAnd:
		return "&"
	case tOr:
		return "|"
	case tImp:
		return "->"
	case tIff:
		return "<->"
	case tEq:
		return "="
	case tNeq:
		return "!="
	case tLt:
		return "<"
	case tLe:
		return "<="
	case tGt:
		return ">"
	case tGe:
		return ">="
	case tPlus:
		return "+"
	case tMinus:
		return "-"
	case tStar:
		return "*"
	case tSlash:
		return "/"
	case tMod:
		return "mod"
	case tIn:
		return "in"
	case tUnion:
		return "union"
	}
	return "?"
}
