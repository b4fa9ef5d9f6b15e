// Asynchronous processes, starvation, and the three forms of
// counterexample output.
//
// The model is the classic SMV semaphore: two `process` instances
// compete for a shared flag, with interleaving semantics and
// FAIRNESS running. Mutual exclusion holds; the liveness property
// AG(entering -> AF critical) fails because a hostile scheduler can
// starve process 1 forever. The example prints the refutation three
// ways:
//
//  1. the raw lasso trace (Section 6 of the paper),
//  2. the compacted trace (the Section 9 "shorter counterexamples"
//     extension),
//  3. the hierarchical explanation tree (the Section 9 "more readable"
//     extension).
//
// Run with:
//
//	go run ./examples/semaphore
package main

import (
	"fmt"
	"log"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/smv"
)

const model = `
MODULE user(sem)
VAR st : {idle, entering, critical, exiting};
ASSIGN
  init(st) := idle;
  next(st) := case
    st = idle            : {idle, entering};
    st = entering & !sem : critical;
    st = critical        : {critical, exiting};
    st = exiting         : idle;
    TRUE                 : st;
  esac;
  next(sem) := case
    st = entering & !sem : TRUE;
    st = exiting         : FALSE;
    TRUE                 : sem;
  esac;
FAIRNESS running
DEFINE in_cs := st = critical;

MODULE main
VAR
  sem : boolean;
  p1 : process user(sem);
  p2 : process user(sem);
ASSIGN init(sem) := FALSE;
`

func main() {
	compiled, err := smv.CompileSource(model, smv.Config{})
	if err != nil {
		log.Fatal(err)
	}
	checker := mc.New(compiled.S)
	gen := core.NewGenerator(checker)

	mutex := ctl.MustParse("AG !(p1.in_cs & p2.in_cs)")
	live := ctl.MustParse("AG (p1.st = entering -> AF p1.in_cs)")

	ok, _, err := gen.CounterexampleInit(mutex)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mutual exclusion: %v\n", verdict(ok))

	ok, tr, err := gen.CounterexampleInit(live)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("liveness for p1:  %v\n\n", verdict(ok))
	if ok {
		return
	}

	fmt.Printf("1) raw lasso counterexample (%d states, cycle %d):\n%s\n",
		tr.Len(), tr.CycleLen(), compiled.TraceString(tr))

	removed := core.Compact(compiled.S, tr, bdd.True)
	if err := core.ValidatePath(compiled.S, tr); err != nil {
		log.Fatalf("compaction broke the trace: %v", err)
	}
	fmt.Printf("2) after compaction (removed %d states):\n%s\n",
		removed, compiled.TraceString(tr))

	tree, err := gen.CounterexampleTree(live, tr.States[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Validate(compiled.S); err != nil {
		log.Fatalf("tree invalid: %v", err)
	}
	fmt.Printf("3) explanation tree (%d nodes):\n%s",
		tree.Size(), tree.Render(func(st kripke.State) string {
			return compiled.FormatStateByVars(st)
		}))
	fmt.Println("\nreading it: the root reaches a state where p1 is entering yet a fair")
	fmt.Println("scheduling loop exists (the EG lasso) on which p1 never enters — p2 and")
	fmt.Println("the scheduler conspire to grab the semaphore at every opportunity.")
}

func verdict(ok bool) string {
	if ok {
		return "holds"
	}
	return "FAILS"
}
