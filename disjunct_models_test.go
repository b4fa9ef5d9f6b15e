package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/mc"
	"repro/internal/smv"
)

// TestDisjunctiveModelsDifferential is the end-to-end oracle for the
// disjunctive image on every shipped model that declares processes: the
// reachable state set, every CTL verdict, and every generated trace —
// counterexamples for failing specs, witnesses for satisfied
// existential ones — must match the monolithic path, with the traces
// from BOTH paths independently validated against the model
// (ValidatePath, and ValidateFairLasso for fair lassos).
func TestDisjunctiveModelsDifferential(t *testing.T) {
	entries, err := os.ReadDir("models")
	if err != nil {
		t.Fatalf("models directory: %v", err)
	}
	processModels := 0
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
		if len(probe.Module.Processes) == 0 {
			continue
		}
		processModels++
		for _, rep := range representations {
			rep := rep
			t.Run(ent.Name()+"/"+rep.name, func(t *testing.T) {
				compareDisjunctiveToMonolithic(t, string(src), rep.cfg)
			})
		}
	}
	if processModels == 0 {
		t.Fatal("no shipped model declares processes — differential is vacuous")
	}
}

// compareDisjunctiveToMonolithic compiles src twice — one copy checked
// through the disjunctive image, one through the monolithic relation —
// and compares everything observable.
func compareDisjunctiveToMonolithic(t *testing.T, src string, cfg smv.Config) {
	dis, err := smv.CompileSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dis.S.NumDisjuncts() == 0 {
		t.Fatal("process model compiled without disjunctive components")
	}

	mono, err := smv.CompileSource(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mono.S.EnablePartition(false) // force the monolithic relation

	reachD, _ := dis.S.Reachable()
	reachM, _ := mono.S.Reachable()
	if d, m := dis.S.CountStates(reachD), mono.S.CountStates(reachM); d != m {
		t.Fatalf("reachable states differ: disjunctive %v, monolithic %v", d, m)
	}

	genD := core.NewGenerator(mc.New(dis.S))
	genM := core.NewGenerator(mc.New(mono.S))
	checkedTraces := 0
	for i, spD := range dis.Module.Specs {
		spM := mono.Module.Specs[i]
		if err := dis.ResolveSpecAtoms(spD.Formula); err != nil {
			t.Fatal(err)
		}
		if err := mono.ResolveSpecAtoms(spM.Formula); err != nil {
			t.Fatal(err)
		}
		holdsD, trD, err := genD.CounterexampleInit(spD.Formula)
		if err != nil {
			t.Fatalf("disjunctive %s: %v", spD.Source, err)
		}
		holdsM, trM, err := genM.CounterexampleInit(spM.Formula)
		if err != nil {
			t.Fatalf("monolithic %s: %v", spM.Source, err)
		}
		if holdsD != holdsM {
			t.Fatalf("%s: disjunctive verdict %v, monolithic %v", spD.Source, holdsD, holdsM)
		}
		if !holdsD {
			if trD == nil || trM == nil {
				t.Fatalf("%s: failing spec without counterexample", spD.Source)
			}
			// Each path's trace validates against the *other* path's
			// structure too: the traces are concrete executions of the same
			// model, whichever image produced them.
			validateTrace(t, spD.Source+" (disjunctive trace)", dis.S, trD)
			validateTrace(t, spD.Source+" (monolithic trace)", mono.S, trM)
			if err := core.ValidatePath(mono.S, trD); err != nil {
				t.Fatalf("%s: disjunctive counterexample rejected by monolithic structure: %v", spD.Source, err)
			}
			checkedTraces++
			continue
		}
		switch spD.Formula.Kind {
		case ctl.KEX, ctl.KEU, ctl.KEG, ctl.KEF:
			start := dis.S.PickState(dis.S.Init)
			if start == nil {
				t.Fatalf("%s: no initial state", spD.Source)
			}
			trD, err := genD.Witness(spD.Formula, start)
			if err != nil {
				t.Fatalf("disjunctive witness %s: %v", spD.Source, err)
			}
			validateTrace(t, spD.Source+" (disjunctive witness)", dis.S, trD)
			if err := core.ValidatePath(mono.S, trD); err != nil {
				t.Fatalf("%s: disjunctive witness rejected by monolithic structure: %v", spD.Source, err)
			}
			checkedTraces++
		}
	}
	// LTLSPECs run through the tableau product on both image paths:
	// verdicts must agree, and each path's fair lasso must validate
	// against the other path's product structure and falsify the
	// formula under the explicit-state replay oracle.
	for _, sp := range dis.Module.LTLSpecs {
		pD, err := dis.Product(sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		if pD.S.NumDisjuncts() == 0 {
			t.Fatalf("LTLSPEC %s: product lost the disjunctive components", sp.Source)
		}
		pM, err := mono.Product(sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
		}
		pM.S.EnablePartition(false)

		chD := mc.New(pD.S)
		holdsD, trD, err := pD.Check(chD)
		if err != nil {
			t.Fatalf("disjunctive LTLSPEC %s: %v", sp.Source, err)
		}
		chM := mc.New(pM.S)
		holdsM, trM, err := pM.Check(chM)
		if err != nil {
			t.Fatalf("monolithic LTLSPEC %s: %v", sp.Source, err)
		}
		if holdsD != holdsM {
			t.Fatalf("LTLSPEC %s: disjunctive verdict %v, monolithic %v", sp.Source, holdsD, holdsM)
		}
		if !holdsD {
			if trD == nil || trM == nil {
				t.Fatalf("LTLSPEC %s: failing spec without counterexample", sp.Source)
			}
			validateTrace(t, sp.Source+" (disjunctive lasso)", pD.S, trD)
			validateTrace(t, sp.Source+" (monolithic lasso)", pM.S, trM)
			if err := core.ValidatePath(pM.S, trD); err != nil {
				t.Fatalf("LTLSPEC %s: disjunctive lasso rejected by monolithic product: %v", sp.Source, err)
			}
			if err := pD.ReplayCounterexample(trD); err != nil {
				t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
			}
			if err := pM.ReplayCounterexample(trM); err != nil {
				t.Fatalf("LTLSPEC %s: %v", sp.Source, err)
			}
			checkedTraces++
		}
		chD.Close()
		chM.Close()
	}
	if checkedTraces == 0 {
		t.Fatal("no trace generated — differential is vacuous")
	}
	if dis.S.RelStats().DisjunctSteps == 0 {
		t.Fatal("disjunctive image never ran")
	}
}
