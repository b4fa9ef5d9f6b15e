// Command modelsoak runs the randomized model-generator differential
// harness for an extended period: each seed produces a well-formed SMV
// program that is compiled through every engine configuration in the
// lattice (monolithic/partitioned/disjunctive × complement edges on/off
// × auto-reorder on/off), cross-checked against the explicit-state
// oracle, and every counterexample trace is replayed.
// Any divergence is shrunk to a minimal reproducer and written to the
// -repro directory; the process exits 1 if any seed diverged.
//
// Usage:
//
//	modelsoak [-seed 0] [-n 0] [-duration 10m] [-repro dir] [-v]
//
// With -n 0 (the default) the soak is time-bound: seeds run from -seed
// upward until -duration elapses. With -n > 0 exactly n seeds run and
// -duration is ignored. Progress is reported every -report interval.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/modelgen"
	"repro/internal/smv"
)

func main() {
	var (
		seed     = flag.Int64("seed", 0, "first generator seed")
		n        = flag.Int64("n", 0, "number of seeds to run (0 = run until -duration elapses)")
		duration = flag.Duration("duration", 10*time.Minute, "soak length when -n is 0")
		repro    = flag.String("repro", "", "directory for shrunk reproducers (default: don't write)")
		report   = flag.Duration("report", 30*time.Second, "progress report interval")
		verbose  = flag.Bool("v", false, "log every divergence in full")
	)
	flag.Parse()

	start := time.Now()
	deadline := start.Add(*duration)
	var ran, diverged int64
	lastReport := start

	for s := *seed; ; s++ {
		if *n > 0 {
			if ran >= *n {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		m := modelgen.Generate(s)
		src := m.Source()
		if _, err := smv.CompileSource(src, smv.Config{}); err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: generated model does not compile: %v\n", s, err)
			diverged++
			ran++
			continue
		}
		if err := modelgen.CheckModel(src); err != nil {
			diverged++
			fmt.Fprintf(os.Stderr, "seed %d: DIVERGENCE: %v\n", s, err)
			if *verbose {
				fmt.Fprintf(os.Stderr, "%s\n", src)
			}
			if *repro != "" {
				if path, werr := modelgen.WriteReproducer(m, *repro); werr != nil {
					fmt.Fprintf(os.Stderr, "seed %d: writing reproducer: %v\n", s, werr)
				} else {
					fmt.Fprintf(os.Stderr, "seed %d: reproducer written to %s\n", s, path)
				}
			}
		}
		ran++
		if time.Since(lastReport) >= *report {
			lastReport = time.Now()
			fmt.Printf("soak: %d models in %s, %d divergences\n",
				ran, time.Since(start).Round(time.Second), diverged)
		}
	}

	fmt.Printf("soak finished: %d models in %s, %d divergences\n",
		ran, time.Since(start).Round(time.Second), diverged)
	if diverged > 0 {
		os.Exit(1)
	}
}
