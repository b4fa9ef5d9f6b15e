package main

// Known answers. Every verdict the benchmark sees is compared with these
// tables; a mismatch counts as a failed spec and makes the run exit
// non-zero, so a wrong run is never reported as a measurement.

// verdicts lists whether each SPEC and each LTLSPEC of a model holds, in
// declaration order.
type verdicts struct{ ctl, ltl []bool }

// shippedVerdicts pins every spec of the models/ corpus. The failing
// specs are the documented ones: mutex's AG !both, arbiter's and
// semaphore's starvation, cache's AG AF c1.st = shared, seitz's two
// AF ta*.out, ring's deliberately false AG !st1.in_cs, hanoi's AG !goal
// (its counterexample is the solution plan), chase's AF caught (the
// escape lasso), and the LTL eventualities of abp and peterson.
//
// The scaled models reuse these tables: hanoi-7 and chase-16 have the
// verdicts of the shipped sizes (the puzzle stays solvable, the evader
// still escapes), and arbiter-8's come with its specs from
// modelgen.ArbiterSpecs.
var shippedVerdicts = map[string]verdicts{
	"abp.smv":       {ctl: []bool{true, true, true, true}, ltl: []bool{false, true, true, false, true}},
	"arbiter.smv":   {ctl: []bool{true, true, false}},
	"cache.smv":     {ctl: []bool{true, true, true, true, true, false}},
	"chase.smv":     {ctl: []bool{true, false, true, true}, ltl: []bool{false, true}},
	"counter.smv":   {ctl: []bool{true, true, true}},
	"dining.smv":    {ctl: []bool{true, true, true, true}},
	"hanoi.smv":     {ctl: []bool{true, false, true}, ltl: []bool{false, true}},
	"mutex.smv":     {ctl: []bool{false, true}},
	"peterson.smv":  {ctl: []bool{true, true, true, true}, ltl: []bool{true, true, true, false, false, false}},
	"ring.smv":      {ctl: []bool{true, true, true, true, true, true, false}},
	"seitz.smv":     {ctl: []bool{true, false, true, false}},
	"semaphore.smv": {ctl: []bool{true, false, true}},
}

// poolExtra adds a failing spec to a pool model whose own SPECs all
// hold, so that every smvd request can ask for a counterexample. AG EF
// crit0 holds on peterson, so crit0 is reachable and AG !crit0 fails.
var poolExtra = map[string]string{"peterson.smv": "AG !crit0"}
