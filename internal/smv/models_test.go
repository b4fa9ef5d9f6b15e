package smv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShippedModelsCompile compiles every .smv file in models/ and
// checks its SPECs, asserting the intended verdicts.
func TestShippedModelsCompile(t *testing.T) {
	dir := filepath.Join("..", "..", "models")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("models directory not found: %v", err)
	}
	// expected failing specs per model (by substring)
	wantFail := map[string][]string{
		"mutex.smv":     {"AG ! both"},
		"arbiter.smv":   {"AF served1"},
		"cache.smv":     {"AF c1.st = shared"},
		"seitz.smv":     {"AF ta1.out", "AF ta2.out"},
		"semaphore.smv": {"AF p1.in_cs"},
		"ring.smv":      {"AG ! st1.in_cs"},
		// the counterexample to AG !goal is the 31-move solution plan
		"hanoi.smv": {"AG ! goal"},
		// the counterexample to AF caught is the evader's escape lasso
		"chase.smv": {"AF caught"},
	}
	count := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".smv") {
			continue
		}
		count++
		src, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CompileSource(string(src), Config{})
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		results, _ := c.CheckAll()
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: SPEC %s: %v", ent.Name(), r.Spec.Source, r.Err)
			}
			shouldFail := false
			for _, sub := range wantFail[ent.Name()] {
				if strings.Contains(r.Spec.Source, sub) {
					shouldFail = true
				}
			}
			if r.Holds == shouldFail {
				t.Errorf("%s: SPEC %s: holds=%v, want %v", ent.Name(), r.Spec.Source, r.Holds, !shouldFail)
			}
			if !r.Holds && r.Trace == nil {
				t.Errorf("%s: failing SPEC without a trace", ent.Name())
			}
		}
	}
	if count == 0 {
		t.Fatal("no .smv models found")
	}
}

// TestSeitzModelMatchesCircuitPipeline cross-checks the two independent
// arbiter encodings: the SMV-language model (models/seitz.smv) and the
// gate-netlist compiler (internal/circuit) must produce the same
// reachable-state count and the same fairness-constraint count.
func TestSeitzModelMatchesCircuitPipeline(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "models", "seitz.smv"))
	if err != nil {
		t.Skipf("seitz.smv not found: %v", err)
	}
	c, err := CompileSource(string(src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	reach, _ := c.S.Reachable()
	got := c.S.CountStates(reach)
	// the circuit pipeline's count, asserted in internal/circuit's tests
	const want = 12288
	if got != want {
		t.Fatalf("SMV-language arbiter reaches %.0f states, circuit pipeline reaches %d", got, want)
	}
	if len(c.S.Fair) != 12 {
		t.Fatalf("expected 12 per-gate fairness constraints, got %d", len(c.S.Fair))
	}
}
