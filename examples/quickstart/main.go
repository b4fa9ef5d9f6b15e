// Quickstart: model a tiny mutual-exclusion protocol in the SMV-like
// input language, check CTL specifications, and print the counterexample
// trace for the one that fails.
//
// Process 1 respects a turn-based tie breaker, but process 2 was
// "optimized" to enter whenever process 1 is not *currently* in the
// critical section — a classic check-then-act race. The checker finds
// the interleaving where both enter simultaneously and prints it.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/smv"
)

const model = `
MODULE main
VAR
  p1 : {idle, trying, critical};
  p2 : {idle, trying, critical};
  turn : boolean;  -- tie breaker: FALSE -> p1 goes first
ASSIGN
  init(p1) := idle;
  init(p2) := idle;
  next(p1) := case
    p1 = idle                        : {idle, trying};
    p1 = trying & (p2 = idle | !turn) : critical;
    p1 = critical                     : idle;
    TRUE                              : p1;
  esac;
  next(p2) := case
    p2 = idle                  : {idle, trying};
    p2 = trying & p1 != critical : critical;   -- BUG: races with p1's entry
    p2 = critical                : idle;
    TRUE                         : p2;
  esac;
  next(turn) := case
    p1 = critical : TRUE;
    p2 = critical : FALSE;
    TRUE          : turn;
  esac;
DEFINE
  both := p1 = critical & p2 = critical;

SPEC AG !both                          -- safety: FAILS (the race)
SPEC AG EF p1 = critical               -- p1 can always eventually enter
SPEC AG (p1 = critical -> AX p1 = idle) -- the section is released
`

func main() {
	compiled, err := smv.CompileSource(model, smv.Config{})
	if err != nil {
		log.Fatal(err)
	}

	reach, _ := compiled.S.Reachable()
	fmt.Printf("model compiled: %d state bits, %.0f reachable states\n\n",
		len(compiled.S.Vars), compiled.S.CountStates(reach))

	// One checker serves every spec, so subformulas they share are
	// computed once; each counterexample is validated against the model.
	checker := mc.New(compiled.S)
	gen := core.NewGenerator(checker)
	for _, sp := range compiled.Module.Specs {
		v, err := compiled.CheckCTL(gen, sp.Formula)
		if err != nil {
			log.Fatalf("SPEC %s: %v", sp.Source, err)
		}
		if v.Holds {
			fmt.Printf("-- specification %s is true\n", sp.Source)
			continue
		}
		fmt.Printf("-- specification %s is false\n", sp.Source)
		fmt.Println("-- as demonstrated by the following execution sequence:")
		fmt.Print(compiled.TraceString(v.Trace))
		fmt.Println()
	}

	fmt.Printf("\nfixpoint work: %d EU iterations, %d EG iterations, peak %d BDD nodes\n",
		checker.Stats.EUIterations, checker.Stats.EGIterations, checker.Stats.PeakNodes)
}
