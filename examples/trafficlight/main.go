// Traffic-light controller with a pedestrian button: a liveness-centric
// example exercising fairness constraints and witness generation for the
// CTL* fragment of Section 7.
//
// The controller cycles green -> yellow -> red; a pedestrian request is
// latched and must be served while red. Without a fairness constraint
// the controller may stay green forever; with FAIRNESS the liveness
// property holds. The example also asks the Section 7 engine for a
// witness of the *existence* of a run that serves the pedestrian
// infinitely often.
//
// Run with:
//
//	go run ./examples/trafficlight
package main

import (
	"fmt"
	"log"

	"repro/internal/ctl"
	"repro/internal/ctlstar"
	"repro/internal/mc"
	"repro/internal/smv"
)

const model = `
MODULE main
VAR
  light : {green, yellow, red};
  btn   : boolean;   -- pedestrian button (environment)
  walk  : boolean;   -- walk sign
ASSIGN
  init(light) := green;
  init(walk)  := FALSE;
  next(light) := case
    light = green  : {green, yellow};  -- may dawdle on green
    light = yellow : red;
    light = red    : {red, green};     -- may dawdle on red
  esac;
  next(walk) := case
    next(light) = red & btn : TRUE;
    next(light) = red       : walk;
    TRUE                    : FALSE;   -- walk only while red
  esac;
DEFINE
  serving := walk & light = red;
FAIRNESS light = yellow   -- the controller eventually leaves green
FAIRNESS light = green    -- ... and eventually returns to green
SPEC AG (btn & light = green -> AF light = red)
SPEC AG (walk -> light = red)
SPEC AG EF serving
`

func main() {
	compiled, err := smv.CompileSource(model, smv.Config{})
	if err != nil {
		log.Fatal(err)
	}
	results, _ := compiled.CheckAll()
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("SPEC %s: %v", r.Spec.Source, r.Err)
		}
		status := "is true"
		if !r.Holds {
			status = "is false"
		}
		fmt.Printf("-- specification %s %s\n", r.Spec.Source, status)
		if !r.Holds {
			fmt.Print(compiled.TraceString(r.Trace))
		}
	}

	// Section 7: is there a single run on which the pedestrian is served
	// infinitely often AND the light is green infinitely often? Ask for
	// a witness lasso.
	sc := ctlstar.New(mc.New(compiled.S))
	f := ctlstar.Formula{
		{ctlstar.GFTerm(ctl.Atom("serving"))},
		{ctlstar.GFTerm(ctl.Eq("light", "green"))},
	}
	set, err := sc.Check(f)
	if err != nil {
		log.Fatal(err)
	}
	init := compiled.S.PickState(compiled.S.Init)
	if !compiled.S.Holds(set, init) {
		fmt.Println("\nno run serves the pedestrian infinitely often — model bug?")
		return
	}
	tr, err := sc.Witness(f, init)
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.ValidateWitness(f, tr); err != nil {
		log.Fatalf("witness failed validation: %v", err)
	}
	fmt.Printf("\nwitness for %s (validated):\n", f)
	fmt.Print(compiled.TraceString(tr))
}
