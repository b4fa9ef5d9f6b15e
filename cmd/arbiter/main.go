// Command arbiter reproduces the paper's case study end to end
// (experiment E1): it compiles the reconstructed Seitz speed-independent
// arbiter to a symbolic model, counts its reachable states, checks the
// liveness specification AG(tr1 -> AF ta1) under the per-gate fairness
// constraints, and prints the counterexample trace with the prefix and
// cycle lengths the paper reports for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/mc"
)

func main() {
	delta := flag.Bool("delta", true, "print the trace as per-state deltas")
	strategy := flag.String("strategy", "simple", "cycle-closure strategy: simple | precompute")
	flag.Parse()

	start := time.Now()
	netlist := circuit.SeitzArbiter()
	model, err := netlist.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("Seitz arbiter (reconstruction): %d nets, %d fairness constraints\n",
		len(model.Vars), len(model.Fair))

	reach, iters := model.Reachable()
	fmt.Printf("reachable states: %.0f in %d iterations (paper: 33,633 on the original netlist)\n",
		model.CountStates(reach), iters)

	checker := mc.New(model)
	gen := core.NewGenerator(checker)
	if *strategy == "precompute" {
		gen.Strategy = core.StrategyPrecompute
	}

	for _, spec := range circuit.ArbiterSpecs {
		f := ctl.MustParse(spec)
		t0 := time.Now()
		holds, tr, err := gen.CounterexampleInit(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", spec, err)
			os.Exit(2)
		}
		if holds {
			fmt.Printf("-- specification %s is true   (%.2fs)\n", spec, time.Since(t0).Seconds())
			continue
		}
		fmt.Printf("-- specification %s is false  (%.2fs)\n", spec, time.Since(t0).Seconds())
		fmt.Printf("-- counterexample: %d states, prefix %d, cycle %d (paper: 78 states, cycle 30)\n",
			tr.Len(), tr.PrefixLen(), tr.CycleLen())
		if err := core.ValidatePath(model, tr); err != nil {
			fmt.Fprintf(os.Stderr, "INVALID TRACE: %v\n", err)
			os.Exit(2)
		}
		fmt.Println("-- trace (validated against the model):")
		if *delta {
			fmt.Print(tr.DeltaString())
		} else {
			fmt.Print(tr.String())
		}
	}
	fmt.Printf("\ntotal wall time: %.2fs (paper: \"a few minutes\" on 1994 hardware)\n",
		time.Since(start).Seconds())
	fmt.Printf("witness generator: ring steps %d, restarts %d, closure attempts %d, walk closures %d, walk fallbacks %d\n",
		gen.Stats.RingSteps, gen.Stats.Restarts, gen.Stats.ClosureAttempts,
		gen.Stats.WalkClosures, gen.Stats.WalkFallbacks)
}
