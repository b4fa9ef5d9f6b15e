package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// TestWitnessRingReuse checks the checker's witness ring caches on every
// failing SPEC of models/*.smv and the 8-cell arbiter, each under the
// image its model picks. A first counterexample fills the checker's
// memo; after a collection, a second one measures the ring work of the
// witness alone. A third, on the same checker, runs no EU iteration,
// fair-EG round or preimage. After another collection, and on the
// arbiter a sift as well, the caches are gone: a fourth recomputes
// exactly the second one's rings. All four render the same trace.
func TestWitnessRingReuse(t *testing.T) {
	paths, err := filepath.Glob("models/*.smv")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no models: %v", err)
	}
	type model struct {
		name, src string
		sift      bool
	}
	var models []model
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{name: p, src: string(src)})
	}
	// The arbiter runs with automatic reordering, and is sifted before
	// its fourth counterexample.
	arbiter := modelgen.ArbiterSource(8)
	specs, _ := modelgen.ArbiterSpecs(8)
	for _, sp := range specs {
		arbiter += "SPEC " + sp + "\n"
	}
	models = append(models, model{name: "arbiter-8", src: arbiter, sift: true})

	ringSpecs, sifted := 0, uint64(0)
	for _, md := range models {
		compiled, err := smv.CompileSource(md.src, smv.Config{})
		if err != nil {
			t.Fatalf("%s: %v", md.name, err)
		}
		m := compiled.S.M
		if md.sift {
			m.EnableAutoReorder(nil)
		}
		checker := mc.New(compiled.S)
		gen := core.NewGenerator(checker)
		// witness returns the trace of one CounterexampleInit (empty
		// when the spec holds) and the ring work it did.
		witness := func(sp *smv.Spec) (string, [3]uint64) {
			before := checker.Stats
			holds, tr, err := gen.CounterexampleInit(sp.Formula)
			if err != nil {
				t.Fatalf("%s: %s: %v", md.name, sp.Source, err)
			}
			after := checker.Stats
			work := [3]uint64{
				after.EUIterations - before.EUIterations,
				after.FairEGOuter - before.FairEGOuter,
				after.PreimageCalls - before.PreimageCalls,
			}
			if holds {
				return "", work
			}
			return compiled.TraceString(tr), work
		}
		for _, sp := range compiled.Module.Specs {
			if err := compiled.ResolveSpecAtoms(sp.Formula); err != nil {
				t.Fatalf("%s: %s: %v", md.name, sp.Source, err)
			}
			first, _ := witness(sp)
			if first == "" {
				continue
			}
			m.GC()
			second, work := witness(sp)
			if work != [3]uint64{} {
				ringSpecs++
			}
			third, rework := witness(sp)
			if rework != [3]uint64{} {
				t.Errorf("%s: %s: the repeat did ring work (EU iterations, fair-EG rounds, preimages) %v",
					md.name, sp.Source, rework)
			}
			m.GC()
			if md.sift {
				before := m.Stats.SiftSwaps
				m.SiftNow()
				sifted += m.Stats.SiftSwaps - before
			}
			fourth, recomputed := witness(sp)
			if recomputed != work {
				t.Errorf("%s: %s: after a collection the witness did ring work %v, want %v",
					md.name, sp.Source, recomputed, work)
			}
			for i, tr := range []string{second, third, fourth} {
				if tr != first {
					t.Errorf("%s: %s: trace %d differs from the first:\n%s\nfirst:\n%s",
						md.name, sp.Source, i+2, tr, first)
				}
			}
		}
		checker.Close()
	}
	if ringSpecs == 0 || sifted == 0 {
		t.Errorf("%d counterexamples walked rings and the sifts swapped %d levels, want both > 0",
			ringSpecs, sifted)
	}
}
