package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/smv"
)

// Differential oracle for the complement-edge representation itself:
// every shipped model is checked under every applicable image mode
// twice — once on a complement-edge manager, once on the structural
// DisableComplementEdges reference — and the two runs must agree
// bit-for-bit on every observable: reachable-state counts, CTL and LTL
// verdicts spec by spec, and trace presence. Every emitted trace must
// validate against its own structure AND against the structure built
// under the other representation (traces are concrete executions of
// the same model; which manager produced them cannot matter).

func TestComplementDifferentialModels(t *testing.T) {
	entries, err := os.ReadDir("models")
	if err != nil {
		t.Fatalf("models directory: %v", err)
	}
	checkedSpecs := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".smv") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("models", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		probe, err := smv.CompileSource(string(src), smv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		modes := []string{"partitioned", "monolithic"}
		if probe.S.NumDisjuncts() > 0 {
			modes = append(modes, "disjunctive")
		}
		for _, mode := range modes {
			mode := mode
			t.Run(ent.Name()+"/"+mode, func(t *testing.T) {
				checkedSpecs += compareRepresentations(t, string(src), mode)
			})
		}
	}
	if checkedSpecs == 0 {
		t.Fatal("no spec was compared — differential is vacuous")
	}
}

// repRun holds everything observable from checking one model under one
// representation.
type repRun struct {
	c         *smv.Compiled
	reachable float64
	verdicts  []specVerdict
	traces    []*core.Trace // parallel to verdicts; nil when the spec holds
	ltl       []specVerdict
	ltlTraces []*core.Trace
	products  []*smv.LTLProduct
}

func runUnderRepresentation(t *testing.T, src, mode string, cfg smv.Config) repRun {
	t.Helper()
	cfg.Disjunctive = mode == "disjunctive"
	c, err := smv.CompileSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	configure := func(cc *smv.Compiled) {
		if mode == "monolithic" {
			cc.S.EnablePartition(false)
		}
	}
	configure(c)
	out := repRun{c: c}
	reach, _ := c.S.Reachable()
	out.reachable = c.S.CountStates(reach)

	gen := core.NewGenerator(mc.New(c.S))
	for _, sp := range c.Module.Specs {
		if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
			t.Fatalf("%s: %v", sp.Source, err)
		}
		holds, tr, err := gen.CounterexampleInit(sp.Formula)
		if err != nil {
			t.Fatalf("%s: %v", sp.Source, err)
		}
		if !holds {
			if tr == nil {
				t.Fatalf("%s: failed without a counterexample", sp.Source)
			}
			validateTrace(t, sp.Source, c.S, tr)
		}
		out.verdicts = append(out.verdicts, specVerdict{spec: sp.Source, holds: holds, hasTrace: tr != nil})
		out.traces = append(out.traces, tr)
	}
	for _, sp := range c.Module.LTLSpecs {
		p, err := c.Product(sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		configure(p.Compiled)
		ch := mc.New(p.S)
		holds, tr, err := p.Check(ch)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		if !holds {
			validateTrace(t, sp.Source, p.S, tr)
			if err := p.ReplayCounterexample(tr); err != nil {
				t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
			}
		}
		out.ltl = append(out.ltl, specVerdict{spec: sp.Source, holds: holds, hasTrace: tr != nil})
		out.ltlTraces = append(out.ltlTraces, tr)
		out.products = append(out.products, p)
		ch.Close()
	}
	return out
}

func compareRepresentations(t *testing.T, src, mode string) int {
	t.Helper()
	comp := runUnderRepresentation(t, src, mode, smv.Config{})
	ref := runUnderRepresentation(t, src, mode, smv.Config{NoComplement: true})

	if comp.reachable != ref.reachable {
		t.Errorf("reachable states differ: %v (complement) vs %v (reference)",
			comp.reachable, ref.reachable)
	}
	compareVerdicts(t, ref.verdicts, comp.verdicts)
	compareVerdicts(t, ref.ltl, comp.ltl)

	// Cross-validate: each representation's traces are executions of the
	// same model, so the other representation's structure must accept
	// them too.
	for i, tr := range comp.traces {
		if tr == nil {
			continue
		}
		if err := core.ValidatePath(ref.c.S, tr); err != nil {
			t.Errorf("%s: complement-edge trace rejected by reference structure: %v",
				comp.verdicts[i].spec, err)
		}
	}
	for i, tr := range ref.traces {
		if tr == nil {
			continue
		}
		if err := core.ValidatePath(comp.c.S, tr); err != nil {
			t.Errorf("%s: reference trace rejected by complement-edge structure: %v",
				ref.verdicts[i].spec, err)
		}
	}
	for i, tr := range comp.ltlTraces {
		if tr == nil || i >= len(ref.products) {
			continue
		}
		if err := core.ValidatePath(ref.products[i].S, tr); err != nil {
			t.Errorf("LTLSPEC %s: complement-edge lasso rejected by reference product: %v",
				comp.ltl[i].spec, err)
		}
	}
	return len(comp.verdicts) + len(comp.ltl)
}
