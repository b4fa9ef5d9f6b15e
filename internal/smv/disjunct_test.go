package smv

import (
	"os"
	"path/filepath"
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
// process), and their union is exactly the monolithic transition
// relation.
func TestProcessEmitsDisjuncts(t *testing.T) {
	c, err := CompileSource(sharedCounterSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.S.NumDisjuncts(); got != 3 {
		t.Fatalf("want 3 components (main, p, q), got %d", got)
	}
	m := c.S.M
	union := bdd.False
	for _, comp := range c.S.Partition().Clusters() {
		union = m.Or(union, comp)
	}
	if union != c.S.Trans() {
		t.Fatal("union of disjunctive components differs from the monolithic relation")
	}
}

// TestShippedModelsPickTheirRelation: under the zero Config every
// shipped process model installs one partition of one part per
// scheduler value, and its reachability and LTL products run through
// it; a synchronous model installs its clusters, even a single one.
func TestShippedModelsPickTheirRelation(t *testing.T) {
	for _, tc := range []struct {
		model               string
		disjuncts, clusters int
	}{
		{"peterson.smv", 3, 0},
		{"ring.smv", 4, 0},
		{"semaphore.smv", 3, 0},
		{"counter.smv", 0, 1},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "models", tc.model))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(string(src), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if d, n := c.S.NumDisjuncts(), c.S.NumClusters(); d != tc.disjuncts || n != tc.clusters {
			t.Errorf("%s: %d disjuncts and %d clusters, want %d and %d", tc.model, d, n, tc.disjuncts, tc.clusters)
		}
		c.S.ResetRelStats()
		c.S.Reachable()
		if steps := c.S.RelStats().DisjunctSteps; (steps > 0) != (tc.disjuncts > 0) {
			t.Errorf("%s: reachability took %d disjunct steps", tc.model, steps)
		}
		for _, sp := range c.Module.LTLSpecs {
			v, err := c.CheckLTL(sp.Formula, sp.Source)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.model, sp.Source, err)
			}
			p := v.Product.S
			if p.NumDisjuncts() != tc.disjuncts || p.RelStats().DisjunctSteps == 0 {
				t.Errorf("%s: %s: product has %d disjuncts and took %d disjunct steps",
					tc.model, sp.Source, p.NumDisjuncts(), p.RelStats().DisjunctSteps)
			}
		}
	}
}

// TestSynchronousModelEmitsNoDisjuncts: models without processes get no
// disjunctive partition, but their clusters.
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
	if c.S.NumDisjuncts() != 0 || c.S.NumClusters() != 2 {
		t.Fatalf("synchronous model installs %d disjuncts and %d clusters, want 0 and 2",
			c.S.NumDisjuncts(), c.S.NumClusters())
	}
}

// TestDisjunctCheckAllAgrees: verdicts under the disjunctive image match
// the monolithic relation's.
func TestDisjunctCheckAllAgrees(t *testing.T) {
	ref, err := CompileSource(sharedCounterSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref.S.EnablePartition(false)
	refResults := checkSpecs(ref)

	c, err := CompileSource(sharedCounterSrc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	results := checkSpecs(c)
	if len(results) != len(refResults) {
		t.Fatal("result count differs")
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Source, r.Err)
		}
		if r.Holds != refResults[i].Holds {
			t.Fatalf("%s: disjunctive verdict %v, monolithic %v",
				r.Spec.Source, r.Holds, refResults[i].Holds)
		}
	}
	if c.S.RelStats().DisjunctSteps == 0 {
		t.Fatal("disjunctive image never ran")
	}
}
