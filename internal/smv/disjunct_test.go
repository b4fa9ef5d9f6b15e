package smv

import (
	"testing"

	"repro/internal/bdd"
)

const sharedCounterSrc = `
MODULE incrementer(shared)
VAR mine : boolean;
ASSIGN
  init(mine) := FALSE;
  next(mine) := !mine;
  next(shared) := !shared;

MODULE main
VAR
  p : process incrementer(g);
  q : process incrementer(g);
  g : boolean;
ASSIGN
  init(g) := FALSE;
SPEC EF (p.mine & q.mine)
SPEC AG (g | !g)
SPEC EF g
`

// TestProcessEmitsDisjuncts: a flattened process model installs one
// disjunctive component per scheduler value (synchronous core + one per
// process), named after the scheduler's enum, and their union is
// exactly the monolithic transition relation.
func TestProcessEmitsDisjuncts(t *testing.T) {
	c, err := CompileSource(sharedCounterSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := c.S.Disjunct()
	if d == nil {
		t.Fatal("process model must install disjunctive components")
	}
	if got := c.S.NumDisjuncts(); got != 3 {
		t.Fatalf("want 3 components (main, p, q), got %d", got)
	}
	names := d.ComponentNames()
	want := []string{"main", "p", "q"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("component names = %v, want %v", names, want)
		}
	}
	m := c.S.M
	union := bdd.False
	for _, comp := range d.Components() {
		union = m.Or(union, comp)
	}
	if union != c.S.Trans() {
		t.Fatal("union of disjunctive components differs from the monolithic relation")
	}
	if c.S.DisjunctEnabled() {
		t.Fatal("disjunctive path must start disabled")
	}
}

// TestSynchronousModelEmitsNoDisjuncts: models without processes get no
// disjunctive partition.
func TestSynchronousModelEmitsNoDisjuncts(t *testing.T) {
	c, err := CompileSource(`
MODULE main
VAR x : boolean; y : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
  next(y) := x;
`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.S.NumDisjuncts() != 0 {
		t.Fatal("synchronous model must not install disjuncts")
	}
}

// TestDisjunctCheckAllAgrees: verdicts under the disjunctive image match
// the conjunctive default.
func TestDisjunctCheckAllAgrees(t *testing.T) {
	ref, err := CompileSource(sharedCounterSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	refResults, _ := ref.CheckAll()

	c, err := CompileSource(sharedCounterSrc, Config{Disjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := c.CheckAll()
	if len(results) != len(refResults) {
		t.Fatal("result count differs")
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Source, r.Err)
		}
		if r.Holds != refResults[i].Holds {
			t.Fatalf("%s: disjunctive verdict %v, conjunctive %v",
				r.Spec.Source, r.Holds, refResults[i].Holds)
		}
	}
	if c.S.RelStats().DisjunctSteps == 0 {
		t.Fatal("disjunctive image never ran")
	}
}
