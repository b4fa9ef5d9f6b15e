package smv

import (
	"fmt"
	"strconv"

	"repro/internal/bdd"
	"repro/internal/kripke"
	"repro/internal/ltl"
)

// ValueKind discriminates domain values.
type ValueKind int

const (
	VBool ValueKind = iota
	VInt
	VSym
)

// Value is one element of a variable's domain (or an expression value).
type Value struct {
	Kind ValueKind
	B    bool
	I    int
	S    string
}

func (v Value) String() string {
	switch v.Kind {
	case VBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case VInt:
		return strconv.Itoa(v.I)
	default:
		return v.S
	}
}

func (v Value) equal(w Value) bool { return v == w }

// VarInfo records how a declared variable is encoded.
type VarInfo struct {
	Decl   *VarDecl
	Values []Value // domain in encoding order
	Bits   []int   // indices into Compiled.S.Vars, LSB first
}

// Compiled is the result of compiling a module: a symbolic Kripke
// structure plus the variable encoding and the parsed specifications.
type Compiled struct {
	S      *kripke.Symbolic
	Module *Module
	Vars   map[string]*VarInfo
	Order  []string // variable declaration order

	cfg     Config // engine configuration; LTL products inherit it
	defines map[string]*Define
	defMemo map[string]*result
	defBusy map[string]bool
}

// result is an evaluated expression: either a boolean state set or a
// partition of the state space by value.
type result struct {
	isBool bool
	isSet  bool // came from a set literal: conditions may overlap
	b      bdd.Ref
	cases  []valCase
}

type valCase struct {
	v    Value
	cond bdd.Ref
}

// Config is the engine configuration a model is compiled under: image
// mode, reordering and node representation. Verdicts and traces must not
// depend on it — the settings are different evaluation strategies over
// the same transition relation — but each changes the BDDs a compiled
// structure holds, so smvd keys sessions and warm-start records by it.
// The JSON keys are smvd's request and record format.
type Config struct {
	// Disjunctive selects the per-process disjunctive image when the
	// model declares processes (ignored otherwise).
	Disjunctive bool `json:"disjunctive,omitempty"`
	// Workers is ignored: every structure runs on one single-threaded
	// manager.
	//
	// Deprecated: the shared-memory parallel BDD engine it configured has
	// been removed. The field remains only because perfbench sets it.
	Workers int `json:"workers,omitempty"`
	// Reorder enables growth-triggered dynamic variable reordering with
	// the default options.
	Reorder bool `json:"reorder,omitempty"`
	// NoComplement compiles onto the legacy structural node
	// representation (bdd.DisableComplementEdges), the oracle the
	// differential suites hold the complement-edge engine against.
	NoComplement bool `json:"no_complement,omitempty"`
}

// CompileSource parses src and compiles it under cfg. The manager is
// created with cfg's node representation; reordering and the
// disjunctive image are switched on once the relation is built.
func CompileSource(src string, cfg Config) (*Compiled, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	return compile(m, nil, cfg)
}

// Compile compiles a parsed module under the zero Config.
//
// Deprecated: use CompileSource. Compile remains only because perfbench
// calls it.
func Compile(m *Module) (*Compiled, error) {
	return compile(m, nil, Config{})
}

// compile is the engine behind CompileSource and Product. When la is
// non-nil it interleaves the tableau product construction (see ltl.go)
// into the normal compile: the tableau variables are appended after the
// model's bit allocation, the tableau clusters join the conjunctive
// partition before the SetClusters/emitDisjuncts decision — so the
// product flows through the same early-quantified and Shannon-expanded
// image paths as the model relation — and the generalized-Büchi sets
// are appended after the model's FAIRNESS constraints.
func compile(m *Module, la *ltlAttachment, cfg Config) (*Compiled, error) {
	c := &Compiled{
		Module:  m,
		cfg:     cfg,
		Vars:    map[string]*VarInfo{},
		defines: map[string]*Define{},
		defMemo: map[string]*result{},
		defBusy: map[string]bool{},
	}
	// Declare variables (c.Order keeps declaration order for display).
	for _, vd := range m.Vars {
		if vd.Type.Kind == TypeInstance {
			return nil, &Error{Line: vd.line,
				Msg: fmt.Sprintf("variable %q instantiates a module; flatten the program first (ParseModule)", vd.Name)}
		}
		if c.Vars[vd.Name] != nil {
			return nil, &Error{Line: vd.line, Msg: fmt.Sprintf("variable %q redeclared", vd.Name)}
		}
		c.Vars[vd.Name] = &VarInfo{Decl: vd, Values: domainValues(vd.Type)}
		c.Order = append(c.Order, vd.Name)
	}
	// Allocate bits in the netlist-aware static order (see order.go);
	// NewSymbolic interleaves each bit's current/next copies.
	var names []string
	for _, name := range staticOrder(m) {
		info := c.Vars[name]
		nbits := bitsFor(len(info.Values))
		for b := 0; b < nbits; b++ {
			bitName := name
			if nbits > 1 {
				bitName = fmt.Sprintf("%s.%d", name, b)
			}
			info.Bits = append(info.Bits, len(names))
			names = append(names, bitName)
		}
	}
	for _, d := range m.Defines {
		if c.defines[d.Name] != nil {
			return nil, &Error{Line: d.line, Msg: fmt.Sprintf("define %q redeclared", d.Name)}
		}
		if c.Vars[d.Name] != nil {
			return nil, &Error{Line: d.line, Msg: fmt.Sprintf("define %q shadows a variable", d.Name)}
		}
		c.defines[d.Name] = d
	}
	// Tableau variables ride after every model bit so traces and
	// FormatStateByVars (which walk c.Order/VarInfo.Bits) never see them.
	if la != nil {
		for i := range la.tab.Elem {
			name := fmt.Sprintf("_ltl%d", i)
			for c.Vars[name] != nil || c.defines[name] != nil {
				name += "_"
			}
			la.elemVars = append(la.elemVars, len(names))
			names = append(names, name)
		}
	}

	var opts []bdd.Option
	if cfg.NoComplement {
		opts = append(opts, bdd.DisableComplementEdges())
	}
	c.S = kripke.NewSymbolic(names, opts...)
	mgr := c.S.M

	// Domain-validity invariant for domains that are not powers of two.
	valid := bdd.True
	for _, name := range c.Order {
		info := c.Vars[name]
		if len(info.Values) == 1<<len(info.Bits) {
			continue
		}
		anyVal := bdd.False
		for i := range info.Values {
			anyVal = mgr.Or(anyVal, c.encodeValue(info, i, false))
		}
		valid = mgr.And(valid, anyVal)
	}

	// Register atoms for SPEC resolution.
	if err := c.registerAtoms(); err != nil {
		return nil, err
	}
	// The tableau reads atoms through the same resolution SPECs use, so
	// both logics see identical labelings (DEFINEs included).
	if la != nil {
		a, err := ltl.Attach(la.tab, c.S, la.elemVars, nil)
		if err != nil {
			return nil, err
		}
		la.attached = a
	}

	// Assignments. Each next-state assignment and each TRANS section
	// contributes one cluster to the conjunctive partition: the
	// per-assignment granularity is what lets SetClusters' affinity pass
	// schedule early quantification (assignments mention exactly one
	// next-state variable). The monolithic conjunction is never built
	// here — Symbolic.Trans materializes it on demand; on large models
	// it can be exponentially bigger than any cluster.
	seen := map[string]bool{}
	initRel := bdd.True
	var transClusters []bdd.Ref
	addCluster := func(rel bdd.Ref) {
		if rel != bdd.True {
			transClusters = append(transClusters, rel)
		}
	}
	for _, a := range m.Assigns {
		info := c.Vars[a.Var]
		if info == nil {
			return nil, &Error{Line: a.line, Msg: fmt.Sprintf("assignment to undeclared variable %q", a.Var)}
		}
		key := fmt.Sprintf("%d:%s", a.Kind, a.Var)
		if seen[key] {
			return nil, &Error{Line: a.line, Msg: fmt.Sprintf("duplicate assignment for %q", a.Var)}
		}
		seen[key] = true
		rhs, err := c.eval(a.RHS, a.Kind == AssignNext)
		if err != nil {
			return nil, err
		}
		rel, err := c.assignRelation(info, rhs, a)
		if err != nil {
			return nil, err
		}
		if a.Kind == AssignInit {
			initRel = mgr.And(initRel, rel)
		} else {
			addCluster(rel)
		}
	}

	// Constraint sections.
	for _, e := range m.Inits {
		b, err := c.evalBool(e, false)
		if err != nil {
			return nil, err
		}
		initRel = mgr.And(initRel, b)
	}
	for _, e := range m.Trans {
		b, err := c.evalBool(e, true)
		if err != nil {
			return nil, err
		}
		addCluster(b)
	}
	invar := valid
	for _, e := range m.Invars {
		b, err := c.evalBool(e, false)
		if err != nil {
			return nil, err
		}
		invar = mgr.And(invar, b)
	}

	c.S.Init = mgr.And(initRel, invar)
	c.S.Invar = invar
	mgr.Protect(c.S.Init)
	mgr.Protect(c.S.Invar)
	if invar != bdd.True {
		addCluster(invar)
		addCluster(c.S.ToNext(invar))
	}
	if la != nil {
		for _, cl := range la.attached.Clusters {
			addCluster(cl)
		}
	}
	if len(transClusters) > 1 {
		// SetClusters leaves the monolithic relation deferred; the
		// clusters' conjunction defines it.
		c.S.SetClusters(transClusters)
	} else {
		rel := bdd.True
		for _, cl := range transClusters {
			rel = mgr.And(rel, cl)
		}
		c.S.SetTrans(rel)
	}
	if len(m.Processes) > 0 {
		if err := c.emitDisjuncts(transClusters); err != nil {
			return nil, err
		}
	}

	for i, e := range m.Fairness {
		b, err := c.evalBool(e, false)
		if err != nil {
			return nil, err
		}
		c.S.AddFairness(fmt.Sprintf("FAIRNESS#%d(%s)", i, e.String()), b)
	}
	if la != nil {
		for i, set := range la.attached.Fair {
			c.S.AddFairness(la.attached.FairNames[i], set)
		}
	}
	// The DEFINE memo holds raw refs that spec-atom resolution and later
	// evaluation read; register them so dynamic reordering rewrites them
	// in place (the structure's own hook covers everything else).
	mgr.OnReorder(c.rewriteRefs)
	if cfg.Reorder {
		mgr.EnableAutoReorder(nil)
	}
	if cfg.Disjunctive && c.S.NumDisjuncts() > 0 {
		c.S.EnableDisjunct(true)
	}
	return c, nil
}

// emitDisjuncts installs the disjunctive transition partition of an
// interleaved (process) model: one component per scheduler value — the
// synchronous core (_running = main) plus one per process — obtained by
// Shannon expansion of the cluster conjunction on the scheduler
// variable:
//
//	R = ⋁_s (guard_s ∧ ⋀_c c|guard_s)
//
// The guards are exhaustive over the valid scheduler encodings, and the
// domain-validity invariant cluster zeroes the invalid ones in both
// forms, so the union equals the conjunction exactly. Under a fixed
// scheduler value every other process's assignment collapses to its
// TRUE:v frame, which is what makes each component small. The
// disjunctive path stays disabled unless Config.Disjunctive is set;
// installation is cheap — k restricted products.
func (c *Compiled) emitDisjuncts(transClusters []bdd.Ref) error {
	info := c.Vars[schedulerVar]
	if info == nil {
		return &Error{Msg: "process model without scheduler variable"}
	}
	mgr := c.S.M
	comps := make([]bdd.Ref, len(info.Values))
	names := make([]string, len(info.Values))
	for idx, v := range info.Values {
		guard := c.encodeValue(info, idx, false)
		comp := guard
		for _, cl := range transClusters {
			comp = mgr.And(comp, mgr.RestrictCube(cl, guard))
		}
		comps[idx] = comp
		names[idx] = v.S
	}
	c.S.SetDisjuncts(comps, names)
	return nil
}

// rewriteRefs is the compiled model's reorder hook.
func (c *Compiled) rewriteRefs(translate func(bdd.Ref) bdd.Ref) {
	seen := map[*result]bool{}
	for _, r := range c.defMemo {
		if r == nil || seen[r] {
			continue
		}
		seen[r] = true
		r.b = translate(r.b)
		for i := range r.cases {
			r.cases[i].cond = translate(r.cases[i].cond)
		}
	}
}

func bitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

func domainValues(t *Type) []Value {
	switch t.Kind {
	case TypeBool:
		return []Value{{Kind: VBool, B: false}, {Kind: VBool, B: true}}
	case TypeEnum:
		out := make([]Value, len(t.Enum))
		for i, s := range t.Enum {
			out[i] = Value{Kind: VSym, S: s}
		}
		return out
	default:
		out := make([]Value, t.Hi-t.Lo+1)
		for i := range out {
			out[i] = Value{Kind: VInt, I: t.Lo + i}
		}
		return out
	}
}

// encodeValue returns the BDD of "variable = Values[idx]" over the
// current (next=false) or next (next=true) copy.
func (c *Compiled) encodeValue(info *VarInfo, idx int, next bool) bdd.Ref {
	m := c.S.M
	res := bdd.True
	for b, bitPos := range info.Bits {
		sv := c.S.Vars[bitPos]
		var bddVar int
		if next {
			bddVar = sv.Next
		} else {
			bddVar = sv.Cur
		}
		if idx>>b&1 == 1 {
			res = m.And(res, m.Var(bddVar))
		} else {
			res = m.And(res, m.NVar(bddVar))
		}
	}
	return res
}

// varCases returns the partition of the state space by the variable's
// value.
func (c *Compiled) varCases(info *VarInfo, next bool) []valCase {
	out := make([]valCase, len(info.Values))
	for i, v := range info.Values {
		out[i] = valCase{v: v, cond: c.encodeValue(info, i, next)}
	}
	return out
}

// valueIndex finds a value in a variable's domain.
func (info *VarInfo) valueIndex(v Value) int {
	for i, w := range info.Values {
		if w.equal(v) {
			return i
		}
	}
	return -1
}

// assignRelation builds the constraint "copy(var) ∈ rhs" where copy is
// the initial (current) or next copy depending on the assignment kind.
func (c *Compiled) assignRelation(info *VarInfo, rhs *result, a *Assign) (bdd.Ref, error) {
	m := c.S.M
	next := a.Kind == AssignNext
	if rhs.isBool {
		if info.Decl.Type.Kind != TypeBool {
			return bdd.False, &Error{Line: a.line,
				Msg: fmt.Sprintf("assigning boolean expression to %s variable %q", info.Decl.Type, info.Decl.Name)}
		}
		trueEnc := c.encodeValue(info, 1, next)
		return m.Eq(trueEnc, rhs.b), nil
	}
	rel := bdd.False
	for _, vc := range rhs.cases {
		if vc.cond == bdd.False {
			continue
		}
		idx := info.valueIndex(coerceToDomain(vc.v, info.Decl.Type))
		if idx < 0 {
			return bdd.False, &Error{Line: a.line,
				Msg: fmt.Sprintf("value %s outside the domain %s of %q", vc.v, info.Decl.Type, info.Decl.Name)}
		}
		rel = m.Or(rel, m.And(vc.cond, c.encodeValue(info, idx, next)))
	}
	if rel == bdd.False {
		return bdd.False, &Error{Line: a.line, Msg: fmt.Sprintf("assignment to %q has no feasible value", info.Decl.Name)}
	}
	return rel, nil
}

// coerceToDomain maps boolean-ish values into boolean domains.
func coerceToDomain(v Value, t *Type) Value {
	if t.Kind == TypeBool && v.Kind == VInt && (v.I == 0 || v.I == 1) {
		return Value{Kind: VBool, B: v.I == 1}
	}
	return v
}
