package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// Warm-start differential oracle: the smvd session cache must be
// invisible to verdicts. For every shipped model and every applicable
// engine config, the model's own specs are answered four ways —
//
//	reference  single-shot check, no care set, no cache (cmd/smv's path)
//	cold       first query on a fresh smvd session
//	hot        second query on the same session (cached reachable/fair
//	           sets + subformula memo)
//	warm       first query after a simulated restart, seeded from the
//	           on-disk serialize-v3 record (adopted variable order,
//	           restored reachable and fair sets)
//
// — and all four must agree on reachable-state counts, CTL and LTL
// verdicts spec by spec, and every failing spec must carry a trace that
// validated against the model structure that produced it.

func TestWarmStartDifferentialModels(t *testing.T) {
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
		module, err := smv.ParseModule(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(module.Specs) == 0 && len(module.LTLSpecs) == 0 {
			continue
		}
		probe, err := smv.CompileSource(string(src), smv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []struct {
			name string
			cfg  smv.Config
		}{
			{"default", smv.Config{}},
			{"nocomp", smv.Config{NoComplement: true}},
		}
		if probe.S.NumDisjuncts() > 0 {
			cfgs = append(cfgs, struct {
				name string
				cfg  smv.Config
			}{"disjunctive", smv.Config{Disjunctive: true}})
		}
		for _, c := range cfgs {
			c := c
			t.Run(ent.Name()+"/"+c.name, func(t *testing.T) {
				checkedSpecs += compareWarmPaths(t, string(src), module, c.cfg)
			})
		}
	}
	if checkedSpecs == 0 {
		t.Fatal("no spec was compared — differential is vacuous")
	}
}

// warmRefRun is the single-shot reference: plain checking without care
// sets or caches, exactly what cmd/smv does by default.
type warmRefRun struct {
	reachable float64
	holds     []bool
	specs     []string
}

func warmReferenceRun(t *testing.T, src string, cfg smv.Config) warmRefRun {
	t.Helper()
	c, err := smv.CompileSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := warmRefRun{}
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
			if err := core.ValidatePath(c.S, tr); err != nil {
				t.Fatalf("%s: reference trace invalid: %v", sp.Source, err)
			}
		}
		out.holds = append(out.holds, holds)
		out.specs = append(out.specs, sp.Source)
	}
	for _, sp := range c.Module.LTLSpecs {
		p, err := c.Product(sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		ch := mc.New(p.S)
		holds, tr, err := p.Check(ch)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		if !holds {
			if err := p.ReplayCounterexample(tr); err != nil {
				t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
			}
		}
		out.holds = append(out.holds, holds)
		out.specs = append(out.specs, sp.Source)
		ch.Close()
	}
	return out
}

func checkAgainstReference(t *testing.T, label string, ref warmRefRun, resp *smvd.CheckResponse) {
	t.Helper()
	if resp.ReachableStates != ref.reachable {
		t.Errorf("%s: reachable states %v, reference %v", label, resp.ReachableStates, ref.reachable)
	}
	if len(resp.Verdicts) != len(ref.holds) {
		t.Fatalf("%s: %d verdicts, reference has %d", label, len(resp.Verdicts), len(ref.holds))
	}
	for i, v := range resp.Verdicts {
		if v.Error != "" {
			t.Errorf("%s: %q errored: %s", label, v.Spec, v.Error)
			continue
		}
		if v.Holds != ref.holds[i] {
			t.Errorf("%s: %q holds=%v, reference %v", label, v.Spec, v.Holds, ref.holds[i])
		}
		if !v.Holds && (!v.Validated || v.Trace == "") {
			t.Errorf("%s: failing %q lacks a validated trace", label, v.Spec)
		}
	}
}

func compareWarmPaths(t *testing.T, src string, module *smv.Module, cfg smv.Config) int {
	t.Helper()
	req := &smvd.CheckRequest{Model: src, Config: cfg}
	for _, sp := range module.Specs {
		req.Specs = append(req.Specs, sp.Source)
	}
	for _, sp := range module.LTLSpecs {
		req.LTL = append(req.LTL, sp.Source)
	}

	ref := warmReferenceRun(t, src, cfg)

	dir := t.TempDir()
	cache1, err := smvd.NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv1 := smvd.NewServer(cache1)
	cold, err := sv1.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("first query reported warm")
	}
	hot, err := sv1.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Warm || hot.WarmSource != "" {
		t.Fatalf("second query not hot: warm=%v source=%q", hot.Warm, hot.WarmSource)
	}
	if err := sv1.Cache.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: a new cache over the same directory.
	cache2, err := smvd.NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := smvd.NewServer(cache2)
	warm, err := sv2.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.WarmSource != "disk" {
		t.Fatalf("restarted query not disk-warm: warm=%v source=%q", warm.Warm, warm.WarmSource)
	}
	if warm.ReachIters != cold.ReachIters {
		t.Errorf("warm restart changed frontier iterations: %d vs %d", warm.ReachIters, cold.ReachIters)
	}

	checkAgainstReference(t, "cold", ref, cold)
	checkAgainstReference(t, "hot", ref, hot)
	checkAgainstReference(t, "warm", ref, warm)
	return len(ref.holds)
}
