package smv

import (
	"strings"
	"testing"
)

func TestFlattenSimpleInstance(t *testing.T) {
	c, err := CompileSource(`
MODULE cell(inp)
VAR q : boolean;
ASSIGN
  init(q) := FALSE;
  next(q) := inp;
DEFINE changed := q != inp;

MODULE main
VAR x : boolean; c0 : cell(x);
ASSIGN init(x) := TRUE; next(x) := x;
SPEC AF c0.q
SPEC AG (c0.changed -> AX !c0.changed)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
	if c.Vars["c0.q"] == nil {
		t.Fatal("instance variable c0.q missing")
	}
}

func TestFlattenNestedInstances(t *testing.T) {
	c, err := CompileSource(`
MODULE bit(carryIn)
VAR v : boolean;
ASSIGN
  init(v) := FALSE;
  next(v) := v != carryIn;        -- xor
DEFINE carryOut := v & carryIn;

MODULE pair(tick)
VAR lo : bit(tick); hi : bit(lo.carryOut);

MODULE main
VAR p : pair(go); go : boolean;
ASSIGN next(go) := TRUE; init(go) := TRUE;
SPEC AG (p.lo.v & p.hi.v -> AX !p.lo.v)
SPEC EF (p.hi.v)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Vars["p.lo.v"] == nil || c.Vars["p.hi.v"] == nil {
		t.Fatalf("nested instance variables missing: %v", c.Order)
	}
	results := checkSpecs(c)
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v\n%s", r.Spec.Source, r.Holds, r.Err, c.TraceString(r.Trace))
		}
	}
}

func TestFlattenCounterChain(t *testing.T) {
	// two chained 2-bit counters: the second ticks when the first wraps.
	c, err := CompileSource(`
MODULE counter(tick)
VAR n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := case tick : (n + 1) mod 4; TRUE : n; esac;
DEFINE wrap := tick & n = 3;

MODULE main
VAR c0 : counter(TRUE); c1 : counter(c0.wrap);
SPEC AG (c0.n = 3 & c1.n = 3 -> AX (c0.n = 0 & c1.n = 0))
SPEC AG AF c1.n = 2
SPEC AG (c1.n = 1 -> c1.n != 2)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reach, _ := c.S.Reachable()
	if got := c.S.CountStates(reach); got != 16 {
		t.Fatalf("chained counters reach %v states, want 16", got)
	}
	results := checkSpecs(c)
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestFlattenSharedState(t *testing.T) {
	// two observers of the same variable through parameters
	c, err := CompileSource(`
MODULE watcher(sig)
VAR seen : boolean;
ASSIGN
  init(seen) := FALSE;
  next(seen) := seen | sig;

MODULE main
VAR s : boolean; w1 : watcher(s); w2 : watcher(!s);
ASSIGN init(s) := FALSE; next(s) := {TRUE, FALSE};
SPEC AG (w1.seen & w2.seen -> AX (w1.seen & w2.seen))  -- latching
SPEC EF (w1.seen & w2.seen)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestFlattenModuleFairness(t *testing.T) {
	// FAIRNESS declared inside a module applies to the instance.
	c, err := CompileSource(`
MODULE flipper
VAR b : boolean;
ASSIGN next(b) := {TRUE, FALSE};
FAIRNESS b

MODULE main
VAR f : flipper;
SPEC AG AF f.b
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	if results[0].Err != nil || !results[0].Holds {
		t.Fatalf("module fairness not applied: %+v", results[0])
	}
}

func TestFlattenNextOfParameter(t *testing.T) {
	c, err := CompileSource(`
MODULE follower(x)
VAR y : boolean;
ASSIGN init(y) := FALSE;
TRANS next(y) = next(x)

MODULE main
VAR a : boolean; f : follower(a);
ASSIGN init(a) := FALSE; next(a) := !a;
SPEC AG (f.y = a)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	if results[0].Err != nil || !results[0].Holds {
		t.Fatalf("next(param) broken: %+v", results[0])
	}
}

func TestFlattenErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"unknown module", "MODULE main VAR x : ghost;"},
		{"recursion", "MODULE a VAR y : a; MODULE main VAR x : a;"},
		{"arity", "MODULE m(p) VAR v : boolean; MODULE main VAR x : m;"},
		{"main with params", "MODULE main(p) VAR x : boolean;"},
		{"spec in submodule", "MODULE m VAR v : boolean; SPEC AG v MODULE main VAR x : m;"},
		{"no main", "MODULE aux VAR v : boolean;"},
		{"dup module", "MODULE main VAR x : boolean; MODULE main VAR y : boolean;"},
		{"next of expr param", `
MODULE m(p)
VAR v : boolean;
TRANS next(v) = next(p)
MODULE main
VAR q : boolean; i : m(!q);`},
		{"select from expr param", `
MODULE m(p)
VAR v : boolean;
ASSIGN next(v) := p.q;
MODULE main
VAR q : boolean; i : m(!q);`},
	}
	for _, c := range bad {
		if _, err := CompileSource(c.src, Config{}); err == nil {
			t.Errorf("%s: should fail:\n%s", c.name, c.src)
		}
	}
}

func TestFlattenPreservesEnumLiterals(t *testing.T) {
	c, err := CompileSource(`
MODULE proc
VAR st : {idle, busy};
ASSIGN
  init(st) := idle;
  next(st) := case st = idle : busy; TRUE : idle; esac;

MODULE main
VAR p : proc;
SPEC AG (p.st = idle -> AX p.st = busy)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	if results[0].Err != nil || !results[0].Holds {
		t.Fatalf("enum literal handling broken: %+v", results[0])
	}
}

func TestFlattenDottedSpecAtoms(t *testing.T) {
	m, err := ParseModule(`
MODULE inner
VAR v : boolean;
MODULE main
VAR i : inner;
SPEC AG i.v
`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range m.Vars {
		if v.Name == "i.v" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flat vars: %v", m.Vars)
	}
	if !strings.Contains(m.Specs[0].Formula.String(), "i.v") {
		t.Fatalf("spec atom lost: %s", m.Specs[0].Formula)
	}
}
