package smv

import "testing"

// TestProcessInterleaving: two process counters sharing nothing; with
// interleaving, exactly one advances per step.
func TestProcessInterleaving(t *testing.T) {
	c, err := CompileSource(`
MODULE counter
VAR n : 0..3;
ASSIGN
  init(n) := 0;
  next(n) := (n + 1) mod 4;

MODULE main
VAR
  a : process counter;
  b : process counter;
SPEC AG !(a.n = 1 & b.n = 1 & EX (a.n = 2 & b.n = 2))
SPEC EF (a.n = 3 & b.n = 3)
SPEC AG (a.n = 0 & b.n = 0 -> AX ((a.n = 1 & b.n = 0) | (a.n = 0 & b.n = 1) | (a.n = 0 & b.n = 0)))
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Vars[schedulerVar] == nil {
		t.Fatal("scheduler variable missing")
	}
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v\n%s", r.Spec.Source, r.Holds, r.Err, c.TraceString(r.Trace))
		}
	}
}

// TestProcessRunningKeyword: `running` inside a process resolves to the
// scheduler test, enabling the standard FAIRNESS running idiom.
func TestProcessRunningKeyword(t *testing.T) {
	c, err := CompileSource(`
MODULE ticker
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
FAIRNESS running

MODULE main
VAR t1 : process ticker; t2 : process ticker;
SPEC AG AF t1.x
SPEC AG AF t2.x
SPEC AG AF !t1.x
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v\n%s", r.Spec.Source, r.Holds, r.Err, c.TraceString(r.Trace))
		}
	}
}

// TestProcessStarvationWithoutFairness: without FAIRNESS running, one
// process can be starved forever.
func TestProcessStarvationWithoutFairness(t *testing.T) {
	c, err := CompileSource(`
MODULE ticker
VAR x : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;

MODULE main
VAR t1 : process ticker; t2 : process ticker;
SPEC AG AF t1.x
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := c.CheckAll()
	if results[0].Holds {
		t.Fatal("starvation must be possible without FAIRNESS running")
	}
	if results[0].Trace == nil || !results[0].Trace.IsLasso() {
		t.Fatal("expected a lasso counterexample")
	}
}

// TestProcessSharedVariable: interleaved access to a shared counter via
// parameters — the classic lost-update shape is visible to the checker.
func TestProcessSharedVariable(t *testing.T) {
	c, err := CompileSource(`
MODULE incrementer(shared)
VAR mine : boolean;
ASSIGN
  init(mine) := FALSE;
  next(mine) := !mine;

MODULE main
VAR
  p : process incrementer(g);
  q : process incrementer(g);
  g : boolean;
ASSIGN
  init(g) := FALSE;
SPEC AG ((p.mine -> AX (p.mine | !p.mine)))   -- sanity
SPEC EF (p.mine & q.mine)
SPEC EF (p.mine & !q.mine)
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := c.CheckAll()
	for _, r := range results {
		if r.Err != nil || !r.Holds {
			t.Fatalf("%s: holds=%v err=%v", r.Spec.Source, r.Holds, r.Err)
		}
	}
}

func TestProcessErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"nested process", `
MODULE inner
VAR x : boolean;
MODULE outer
VAR i : process inner;
MODULE main
VAR o : process outer;`},
		{"reserved name", `
MODULE p
VAR x : boolean;
MODULE main
VAR _running : boolean; i : process p;`},
		{"process of unknown module", `
MODULE main
VAR i : process ghost;`},
	}
	for _, c := range bad {
		if _, err := CompileSource(c.src, Config{}); err == nil {
			t.Errorf("%s: should fail", c.name)
		}
	}
}
