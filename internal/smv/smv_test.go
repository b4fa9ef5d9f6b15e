package smv

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/ctl"
	"repro/internal/kripke"
)

func compileOK(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := CompileSource(src, Config{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                  // no module
		"MODULE other VAR x : boolean;",     // wrong name
		"MODULE main",                       // no vars
		"MODULE main VAR x : boolean",       // missing semicolon
		"MODULE main VAR x : 5..3;",         // empty range
		"MODULE main VAR x : boolean; SPEC", // empty spec
		"MODULE main VAR x : boolean; ASSIGN foo(x) := TRUE;",
		"MODULE main VAR x : boolean; ASSIGN init(x) := case esac;",
		"MODULE main MODULE aux",
	}
	for _, src := range bad {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("ParseModule(%q) should fail", src)
		}
	}
}

// TestNumberLimits checks that a number beyond int, as a range bound or
// in an expression, and a range above the value cap are parse errors at
// the offending token, while a range exactly at the cap parses.
func TestNumberLimits(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"MODULE main VAR x : 0..3; ASSIGN init(x) := 99999999999999999999;", "line 1:45: number 99999999999999999999 does not fit in an int"},
		{"MODULE main VAR x : 0..99999999999999999999;", "line 1:24: number 99999999999999999999 does not fit in an int"},
		{"MODULE main\nVAR x : 0..100000000;", "line 2:12: range 0..100000000 has more than 4096 values"},
		{"MODULE main VAR x : 1..4097;", "line 1:24: range 1..4097 has more than 4096 values"},
	} {
		_, err := ParseModule(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseModule(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
	if _, err := ParseModule("MODULE main VAR x : 1..4096;"); err != nil {
		t.Errorf("a range of exactly %d values: %v", maxDomainValues, err)
	}
	enum := func(n int) string {
		syms := make([]string, n)
		for i := range syms {
			syms[i] = fmt.Sprintf("e%d", i)
		}
		return "MODULE main VAR s : {" + strings.Join(syms, ", ") + "};"
	}
	over := enum(maxDomainValues + 1)
	want := fmt.Sprintf("line 1:%d: enum has more than %d symbols", strings.LastIndex(over, "e")+1, maxDomainValues)
	if _, err := ParseModule(over); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a %d-symbol enum: %v, want an error containing %q", maxDomainValues+1, err, want)
	}
	if _, err := ParseModule(enum(maxDomainValues)); err != nil {
		t.Errorf("an enum of exactly %d symbols: %v", maxDomainValues, err)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"dup var", "MODULE main VAR x : boolean; x : boolean;"},
		{"dup assign", "MODULE main VAR x : boolean; ASSIGN init(x) := TRUE; init(x) := FALSE;"},
		{"undeclared", "MODULE main VAR x : boolean; ASSIGN init(y) := TRUE;"},
		{"out of domain", "MODULE main VAR n : 0..3; ASSIGN next(n) := n + 1;"},
		{"next in init section", "MODULE main VAR x : boolean; INIT next(x);"},
		{"cyclic define", "MODULE main VAR x : boolean; DEFINE a := b; b := a;"},
		{"bool arith", "MODULE main VAR x : boolean; n : 0..3; ASSIGN next(n) := n + x;"},
		{"set compare", "MODULE main VAR n : 0..3; INIT {1,2} = n;"},
		{"div by zero", "MODULE main VAR n : 0..3; INIT n / 0 = 1;"},
		{"order on enum", "MODULE main VAR s : {a, b}; INIT s < b;"},
		{"repeated enum symbol", "MODULE main VAR s : {a, b, a}; SPEC AG (s = a | s = b)"},
	}
	for _, c := range bad {
		if _, err := CompileSource(c.src, Config{}); err == nil {
			t.Errorf("%s: should fail to compile:\n%s", c.name, c.src)
		}
	}
}

func TestBooleanToggle(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
SPEC AG (x -> AX !x)
SPEC AG AF x
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Source, r.Err)
		}
		if !r.Holds {
			t.Fatalf("%s should hold\n%s", r.Spec.Source, c.TraceString(r.Trace))
		}
	}
}

func TestEnumAndCase(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR
  st : {idle, busy, done};
  req : boolean;
ASSIGN
  init(st) := idle;
  next(st) := case
    st = idle & req : busy;
    st = busy : done;
    st = done : idle;
    TRUE : idle;
  esac;
DEFINE working := st = busy;
SPEC AG (working -> AX st = done)
SPEC AG (st = done -> AX st = idle)
SPEC AG EF st = idle
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v\n%s", r.Spec.Source, r.Holds, r.Err, c.TraceString(r.Trace))
		}
	}
}

func TestRangeArithmetic(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR n : 0..7;
ASSIGN
  init(n) := 0;
  next(n) := (n + 1) mod 8;
SPEC AG (n = 7 -> AX n = 0)
SPEC AG (n = 3 -> AX n = 4)
SPEC AG AF n = 5
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
	// 8 reachable states
	reach, _ := c.S.Reachable()
	if got := c.S.CountStates(reach); got != 8 {
		t.Fatalf("reachable = %v, want 8", got)
	}
}

func TestNondeterministicSet(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR st : {a, b, c};
ASSIGN
  init(st) := a;
  next(st) := case
    st = a : {b, c};
    TRUE : a;
  esac;
SPEC EX st = b
SPEC EX st = c
SPEC AX (st = b | st = c)
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestUnassignedVariablesAreFree(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR x : boolean; inp : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := inp;
SPEC EF x
SPEC AG (inp = 1 -> AX x)
SPEC AG (inp = 0 -> AX !x)
SPEC AG (EX inp | EX !inp)
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestInitTransInvarSections(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR n : 0..3;
INIT n = 0
TRANS next(n) = (n + 1) mod 4 | next(n) = n
INVAR n != 3
SPEC AG n != 3
SPEC EF n = 2
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
	// INVAR must exclude n=3 from reachable states.
	reach, _ := c.S.Reachable()
	if got := c.S.CountStates(reach); got != 3 {
		t.Fatalf("reachable = %v, want 3", got)
	}
}

func TestFairnessSection(t *testing.T) {
	// x may stay or flip; fairness forces x to be true infinitely often.
	c := compileOK(t, `
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := {TRUE, FALSE};
FAIRNESS x
SPEC AG AF x
`)
	results, _ := c.CheckAll()
	if !results[0].Holds || results[0].Err != nil {
		t.Fatalf("AG AF x should hold under FAIRNESS x: %+v", results[0])
	}
	// without fairness it must fail
	c2 := compileOK(t, `
MODULE main
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := {TRUE, FALSE};
SPEC AG AF x
`)
	results2, _ := c2.CheckAll()
	if results2[0].Holds {
		t.Fatal("AG AF x must fail without fairness")
	}
	if results2[0].Trace == nil || !results2[0].Trace.IsLasso() {
		t.Fatal("counterexample lasso expected")
	}
}

func TestCounterexampleDecoding(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR st : {ok, bad};
ASSIGN
  init(st) := ok;
  next(st) := case
    st = ok : {ok, bad};
    TRUE : bad;
  esac;
SPEC AG st = ok
`)
	results, _ := c.CheckAll()
	r := results[0]
	if r.Holds || r.Trace == nil {
		t.Fatal("spec must fail with a trace")
	}
	out := c.TraceString(r.Trace)
	if !strings.Contains(out, "st=ok") || !strings.Contains(out, "st=bad") {
		t.Fatalf("trace not decoded by variable:\n%s", out)
	}
	// final state of the trace must violate st = ok
	last := r.Trace.Last()
	if c.StateValue(last, "st").S != "bad" {
		t.Fatalf("counterexample does not end in a bad state:\n%s", out)
	}
}

func TestDefineAsSpecAtom(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := (n + 1) mod 4;
DEFINE small := n < 2;
SPEC AG (small -> AX AX !small)
SPEC AG (n = 0 -> small)
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestValuedDefineEqAtom(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := (n + 1) mod 4;
DEFINE m := (n + 2) mod 4;
SPEC AG (n = 0 -> m = 2)
`)
	results, _ := c.CheckAll()
	if results[0].Err != nil || !results[0].Holds {
		t.Fatalf("valued DEFINE atom: %+v", results[0])
	}
}

// TestDefineRefsAreDeterministic compiles hanoi.smv ten times: its six
// DEFINE atoms must resolve to the same refs every time. DEFINEs built
// in map order would get differently numbered nodes from run to run.
func TestDefineRefsAreDeterministic(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "models", "hanoi.smv"))
	if err != nil {
		t.Fatal(err)
	}
	var first []bdd.Ref
	for run := 0; run < 10; run++ {
		c, err := CompileSource(string(src), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Module.Defines) != 6 {
			t.Fatalf("hanoi.smv has %d DEFINEs, want 6", len(c.Module.Defines))
		}
		var refs []bdd.Ref
		for _, d := range c.Module.Defines {
			r, err := c.S.AtomSet(&ctl.Formula{Kind: ctl.KAtom, Name: d.Name})
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, r)
		}
		if run == 0 {
			first = refs
		} else if !slices.Equal(refs, first) {
			t.Fatalf("compile %d resolved the DEFINE atoms to %v, compile 0 to %v", run, refs, first)
		}
	}
}

func TestSpecUnknownAtom(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR x : boolean;
SPEC AG ghost
`)
	results, _ := c.CheckAll()
	if results[0].Err == nil {
		t.Fatal("unknown SPEC atom must error")
	}
}

func TestComments(t *testing.T) {
	compileOK(t, `
MODULE main -- the module
VAR x : boolean; -- a variable
-- full line comment
ASSIGN init(x) := TRUE; -- set it
`)
}

func TestStateValueDecoding(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR st : {a, b, c}; n : 2..5; x : boolean;
ASSIGN init(st) := b; init(n) := 4; init(x) := TRUE;
`)
	st := c.S.PickState(c.S.Init)
	if st == nil {
		t.Fatal("no initial state")
	}
	if got := c.StateValue(st, "st"); got.S != "b" {
		t.Fatalf("st decodes to %s", got)
	}
	if got := c.StateValue(st, "n"); got.I != 4 {
		t.Fatalf("n decodes to %s", got)
	}
	if got := c.StateValue(st, "x"); !got.B {
		t.Fatalf("x decodes to %s", got)
	}
	_ = kripke.State(nil)
}

func TestDomainValidityInvariant(t *testing.T) {
	// 3-valued enum needs 2 bits; the 4th encoding must be excluded.
	c := compileOK(t, `
MODULE main
VAR st : {a, b, c};
ASSIGN next(st) := st;
`)
	reach, _ := c.S.Reachable()
	if got := c.S.CountStates(reach); got != 3 {
		t.Fatalf("reachable = %v, want 3 (validity invariant broken)", got)
	}
	if !c.S.IsTotal() {
		t.Fatal("model must be total")
	}
}

func TestMustParseModulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseModule should panic on bad input")
		}
	}()
	MustParseModule("garbage")
}

func TestCheckSpecDirect(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR x : boolean;
ASSIGN init(x) := FALSE; next(x) := TRUE;
`)
	holds, _, err := c.CheckSpec(ctl.MustParse("AF x"))
	if err != nil || !holds {
		t.Fatalf("AF x: %v %v", holds, err)
	}
	holds, tr, err := c.CheckSpec(ctl.MustParse("AG !x"))
	if err != nil || holds || tr == nil {
		t.Fatalf("AG !x should fail with trace: %v %v %v", holds, tr, err)
	}
}

func TestInOperator(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR st : {idle, busy, done}; n : 0..7;
ASSIGN
  init(st) := idle;
  next(st) := case
    st = idle : busy;
    st = busy : done;
    TRUE      : idle;
  esac;
  init(n) := 0;
  next(n) := (n + 1) mod 8;
DEFINE active := st in {busy, done};
DEFINE low := n in {0, 1, 2, 3};
SPEC AG (st = busy -> active)
SPEC AG (st = idle -> !active)
SPEC AG (n = 2 -> low)
SPEC AG (n = 5 -> !low)
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestUnionOperator(t *testing.T) {
	c := compileOK(t, `
MODULE main
VAR n : 0..7;
ASSIGN
  init(n) := 0;
  next(n) := {0} union {(n + 1) mod 8} union {n};
SPEC AG (n = 3 -> EX n = 4)
SPEC AG EX n = 0
SPEC AG (n = 3 -> EX n = 3)
SPEC AG (n = 3 -> !EX n = 6)
`)
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestInWithSetOnLeftFails(t *testing.T) {
	if _, err := CompileSource(`
MODULE main
VAR n : 0..3;
INIT {1,2} in {1,2,3}
`, Config{}); err == nil {
		t.Fatal("set on the left of 'in' must fail")
	}
}
