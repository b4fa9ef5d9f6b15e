package modelgen

import (
	"strings"
	"testing"

	"repro/internal/smv"
)

// TestGenerateDeterministic: the same seed must render byte-identical
// source — reproducers and soak reports reference models by seed alone.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed).Source()
		b := Generate(seed).Source()
		if a != b {
			t.Fatalf("seed %d: two generations differ:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestGeneratedModelsCompile: every generated model is a well-formed
// SMV program — it parses, flattens, compiles, and declares at least
// one specification (otherwise the differential is vacuous).
func TestGeneratedModelsCompile(t *testing.T) {
	procs, fair, trans := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		m := Generate(seed)
		src := m.Source()
		c, err := smv.CompileSource(src, smv.Config{})
		if err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, src)
		}
		if len(c.Module.Specs) == 0 && len(c.Module.LTLSpecs) == 0 {
			t.Fatalf("seed %d declares no specification", seed)
		}
		if len(m.Procs) > 0 {
			procs++
			if c.S.NumDisjuncts() == 0 {
				t.Fatalf("seed %d has processes but no disjuncts", seed)
			}
		}
		if len(m.Fair) > 0 {
			fair++
		}
		if len(m.Trans) > 0 {
			trans++
		}
	}
	// The generator must actually exercise the features the lattice
	// varies over; a silent bias collapse would make the suite vacuous.
	if procs == 0 || fair == 0 || trans == 0 {
		t.Fatalf("feature starvation: procs=%d fair=%d trans=%d over 300 seeds", procs, fair, trans)
	}
}

// TestShrinkPreservesWellFormedness: shrinking with a predicate that
// accepts everything must still yield a compiling model (the cascade
// deletion keeps cases total and references resolved).
func TestShrinkDropUses(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := Generate(seed)
		if len(m.Vars) < 2 {
			continue
		}
		c := m.clone()
		v := c.Vars[0]
		if v.Name == c.Token && len(c.Procs) > 0 {
			continue
		}
		c.Vars = c.Vars[1:]
		c.Assigns = c.Assigns[1:]
		c.dropUses(v.Name)
		src := c.Source()
		if strings.Contains(src, v.Name+" ") || strings.Contains(src, v.Name+")") {
			// Best-effort textual check only; compilation is the contract.
			_ = src
		}
		if _, err := smv.CompileSource(src, smv.Config{}); err != nil {
			t.Fatalf("seed %d: dropping %s broke the model: %v\n%s", seed, v.Name, err, src)
		}
	}
}
