// Command smv is a small symbolic model checker in the style of the SMV
// system the paper describes: it reads a model in an SMV-like input
// language, checks every SPEC, and prints counterexample traces for the
// specifications that fail.
//
// Usage:
//
//	smv [-stats] [-delta] [-reachable] [-witness] [-compact] [-tree]
//	    [-reorder] [-disjunctive] [-ltl "formula"]
//	    [-simulate N -seed S] model.smv
//
// Besides SPEC (CTL) sections the input may contain LTLSPEC sections;
// each is checked by compiling the model in product with the Büchi
// tableau of the negated formula and testing fair emptiness. Failing
// LTL specifications produce a fair lasso (stem + cycle) over the model
// variables.
//
// Flags:
//
//	-stats       print BDD and fixpoint statistics after checking
//	-ltl F       check LTL formula F in addition to the model's LTLSPECs
//	-reorder     enable dynamic variable reordering (growth-triggered sifting)
//	-disjunctive use the disjunctive (per-process) image on interleaved models
//	-delta       print traces showing only changed variables per state
//	-reachable   report the number of reachable states first
//	-witness     for specs that hold and are existential, print a witness
//	-compact     shorten traces with shortcut compaction (§9 extension)
//	-tree        print failures as hierarchical explanation trees (§9)
//	-simulate N  print a random N-step execution instead of checking
//	-server URL  send the model to a running smvd instead of checking
//	             locally (the server's session cache makes repeated
//	             checks of an unchanged model nearly free)
//	-cache-dir D warm-start from (and refresh) smvd-format warm records:
//	             a prior run's variable order, reachable set and fair
//	             set are restored, skipping those fixpoints
//	-cpuprofile F / -memprofile F
//	             write pprof profiles of the run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/smv"
	"repro/internal/smvd"
)

func main() {
	stats := flag.Bool("stats", false, "print BDD/fixpoint statistics")
	delta := flag.Bool("delta", false, "print traces as per-state deltas")
	reachable := flag.Bool("reachable", false, "report reachable state count")
	witness := flag.Bool("witness", false, "print witnesses for satisfied existential specs")
	compact := flag.Bool("compact", false, "shorten traces with shortcut compaction")
	tree := flag.Bool("tree", false, "print counterexamples as explanation trees")
	simulate := flag.Int("simulate", 0, "print a random execution of N steps instead of checking")
	seed := flag.Int64("seed", 1, "random seed for -simulate")
	ltlSpec := flag.String("ltl", "", "check an LTL formula in addition to the model's LTLSPEC sections")
	reorder := flag.Bool("reorder", false, "enable dynamic variable reordering")
	disjunctive := flag.Bool("disjunctive", false, "use the disjunctive (per-process) image on interleaved models")
	noComplement := flag.Bool("no-complement", false, "disable complement edges (legacy structural negation)")
	server := flag.String("server", "", "check via a running smvd at this base URL instead of locally")
	cacheDir := flag.String("cache-dir", "", "warm-start from (and write) smvd warm records in this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smv [flags] model.smv")
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	memProfilePath = *memprofile
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := smv.Config{
		Disjunctive:  *disjunctive,
		Reorder:      *reorder,
		NoComplement: *noComplement,
	}
	if *server != "" {
		module, err := smv.ParseModule(string(src))
		if err != nil {
			fatal(err)
		}
		exit(checkRemote(*server, string(src), module, cfg, *ltlSpec))
	}
	compiled, err := smv.CompileSource(string(src), cfg)
	if err != nil {
		fatal(err)
	}
	if *disjunctive && compiled.S.NumDisjuncts() == 0 {
		fmt.Fprintln(os.Stderr, "warning: -disjunctive has no effect: model declares no processes")
	}

	// Warm start: restore a previous run's variable order and fixpoint
	// results from the shared smvd record store, if a record exists.
	var store *smvd.DiskStore
	var modelKey string
	var warmReach, warmFair bdd.Ref
	var warmIters int
	warm := false
	if *cacheDir != "" {
		store, err = smvd.OpenDiskStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		modelKey = smvd.ModelKey(string(src), cfg)
		warmReach, warmFair, warmIters, warm, err = store.Load(modelKey, compiled.S.M)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: warm-start load failed: %v\n", err)
			warm = false
		}
		compiled.S.EnableReachableCache()
		if warm {
			compiled.S.SetReachable(warmReach, warmIters)
		}
	}

	// CTL semantics assume a total transition relation; warn when the
	// model has deadlocked states so vacuous EG/EX verdicts on them are
	// not mistaken for real ones.
	if dead := compiled.S.DeadlockStates(); dead != bdd.False {
		ex := compiled.S.PickState(dead)
		fmt.Fprintf(os.Stderr,
			"warning: model has %.0f deadlock state(s) with no successor, e.g. [%s]\n",
			compiled.S.CountStates(dead), compiled.FormatStateByVars(ex))
	}

	if *reachable {
		reach, iters := compiled.S.Reachable()
		fmt.Printf("reachable states: %.0f (in %d frontier iterations)\n\n",
			compiled.S.CountStates(reach), iters)
	}

	if *simulate > 0 {
		tr, err := compiled.Simulate(rand.New(rand.NewSource(*seed)), *simulate)
		if tr != nil {
			fmt.Println("-- random execution:")
			printTrace(compiled, tr, *delta)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}

	checker := mc.New(compiled.S)
	gen := core.NewGenerator(checker)
	if store != nil {
		if warm {
			// SetCareSet clears the checker's fair cache, so the seed must
			// come after it — same order as an smvd warm start.
			checker.SetCareSet(warmReach)
			checker.SeedFair(warmFair)
		} else {
			// Run the fixpoints now so a record can be written on exit; the
			// care-set restriction matches what a warmed run would use, so
			// cold and warm runs check identically.
			checker.UseReachableCareSet()
			checker.Fair()
		}
	}
	exitCode := 0
	for _, sp := range compiled.Module.Specs {
		fmt.Printf("-- specification %s ", sp.Source)
		if err := compiled.ResolveSpecAtoms(sp.Formula); err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			continue
		}
		holds, tr, err := gen.CounterexampleInit(sp.Formula)
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			continue
		}
		if holds {
			fmt.Println("is true")
			if *witness {
				printWitness(compiled, gen, sp.Formula, *delta)
			}
			continue
		}
		fmt.Println("is false")
		exitCode = 1
		if *tree && tr != nil {
			start := tr.States[0] // the failing initial state
			if node, terr := gen.CounterexampleTree(sp.Formula, start); terr == nil {
				fmt.Println("-- explanation:")
				fmt.Print(node.Render(func(st kripke.State) string {
					return compiled.FormatStateByVars(st)
				}))
				continue
			}
		}
		if *compact && tr != nil {
			core.Compact(compiled.S, tr, bdd.True)
		}
		fmt.Println("-- as demonstrated by the following execution sequence:")
		printTrace(compiled, tr, *delta)
	}

	// LTL specifications: each check compiles a fresh product of the
	// model with the tableau of the negated formula, on its own BDD
	// manager under the model's config.
	ltlSpecs := append([]*smv.LTLSpec(nil), compiled.Module.LTLSpecs...)
	if *ltlSpec != "" {
		f, err := ltl.Parse(*ltlSpec)
		if err != nil {
			fatal(err)
		}
		ltlSpecs = append(ltlSpecs, &smv.LTLSpec{Source: *ltlSpec, Formula: f})
	}
	for _, sp := range ltlSpecs {
		fmt.Printf("-- LTL specification %s ", sp.Source)
		p, err := compiled.Product(sp.Formula, sp.Source)
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			continue
		}
		ch := mc.New(p.S)
		holds, tr, err := p.Check(ch)
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			ch.Close()
			continue
		}
		if holds {
			fmt.Println("is true")
		} else {
			fmt.Println("is false")
			exitCode = 1
			if err := p.ReplayCounterexample(tr); err != nil {
				fmt.Fprintf(os.Stderr, "warning: counterexample replay failed: %v\n", err)
				exitCode = 2
			}
			fmt.Println("-- as demonstrated by the following fair execution sequence:")
			printTrace(p.Compiled, tr, *delta)
		}
		if *stats {
			rel := p.S.RelStats()
			fmt.Printf("-- LTL product: %d tableau variables, %d fairness sets, %d clusters, "+
				"%d live nodes (peak %d in chains), %d fair-EG outer iterations\n",
				len(p.ElemVars), len(p.S.Fair), p.S.NumClusters(),
				p.S.M.NumNodes(), rel.PeakLiveNodes, ch.Stats.FairEGOuter)
		}
		ch.Close()
	}

	if *stats {
		m := compiled.S.M
		fmt.Printf("\n-- statistics\n")
		fmt.Printf("state variables:    %d (BDD variables: %d)\n", len(compiled.S.Vars), m.NumVars())
		fmt.Printf("live BDD nodes:     %d\n", m.NumNodes())
		// bdd.Stats.CacheHits also counts AndExists hits, whose lookups
		// are in AndExistsLookups: subtract them to pair ITE-table hits
		// with ITE-table lookups.
		fmt.Printf("ITE calls:          %d (cache hits %d / lookups %d)\n",
			m.Stats.ITECalls, m.Stats.CacheHits-m.Stats.AndExistsHits, m.Stats.CacheLookups)
		rel := compiled.S.RelStats()
		fmt.Printf("computed cache:     %.1f%% hit rate (%d hits / %d lookups), unique-table load %.2f, complement edges %v\n",
			100*rel.CacheHitRate(), rel.CacheHits, rel.CacheLookups,
			rel.UniqueTableLoad, !m.ComplementEdgesDisabled())
		fmt.Printf("EU fixpoints:       %d (%d iterations)\n",
			checker.Stats.EUFixpoints, checker.Stats.EUIterations)
		fmt.Printf("EG fixpoints:       %d (%d iterations, %d fair outer)\n",
			checker.Stats.EGFixpoints, checker.Stats.EGIterations, checker.Stats.FairEGOuter)
		fmt.Printf("peak BDD nodes:     %d\n", checker.Stats.PeakNodes)
		fmt.Printf("transition clusters: %d (preimages %d, images %d, cluster steps %d, peak %d nodes in chains)\n",
			compiled.S.NumClusters(), rel.PreimageCalls, rel.ImageCalls, rel.ClusterSteps, rel.PeakLiveNodes)
		if n := compiled.S.NumDisjuncts(); n > 0 {
			fmt.Printf("disjunctive components: %d (enabled %v, disjunct steps %d)\n",
				n, compiled.S.DisjunctEnabled(), rel.DisjunctSteps)
		}
		fmt.Printf("checker preimages:  %d (%d cluster steps, %d disjunct steps, AndExists cache hits %d / lookups %d)\n",
			checker.Stats.PreimageCalls, checker.Stats.ClusterSteps, checker.Stats.DisjunctSteps,
			checker.Stats.AndExistsHits, checker.Stats.AndExistsLookups)
		fmt.Printf("witness ring steps: %d (restarts %d, %d single-state images, %d ring reuses)\n",
			gen.Stats.RingSteps, gen.Stats.Restarts, gen.Stats.ImageCalls, checker.Stats.RingReuses)
		fmt.Printf("dynamic reordering: %d sift events (%d passes, %d trials, %d swaps, %d aborted, %d timed out), "+
			"%d nodes saved, %v total\n",
			m.Stats.AutoReorders, m.Stats.SiftPasses, m.Stats.SiftTrials, m.Stats.SiftSwaps,
			m.Stats.SiftAborts, m.Stats.SiftTimeouts,
			m.Stats.ReorderSavedNodes, m.Stats.ReorderTime)
		if top := m.TopLevels(5); len(top) > 0 {
			parts := make([]string, 0, len(top))
			for _, lo := range top {
				parts = append(parts, fmt.Sprintf("L%d(v%d)=%d", lo.Level, lo.Var, lo.Count))
			}
			fmt.Printf("fattest levels:     %s\n", strings.Join(parts, "  "))
		}
		fmt.Printf("checker reorders:   %d (%v during fixpoints)\n",
			checker.Stats.Reorders, checker.Stats.ReorderTime)
	}
	if store != nil && !warm {
		if reach, iters, ok := compiled.S.ReachableCached(); ok {
			if fair, okFair := checker.CachedFair(); okFair {
				if err := store.Save(modelKey, cfg, compiled.S.M, reach, fair, iters); err != nil {
					fmt.Fprintf(os.Stderr, "warning: warm-record save failed: %v\n", err)
				}
			}
		}
	}
	exit(exitCode)
}

// checkRemote is -server mode: the model and its spec sources go to a
// running smvd, whose session cache (shared reachable/fair sets,
// subformula memo, warm-start records) answers repeated checks of an
// unchanged model without recompiling it. Output mirrors local mode.
func checkRemote(base, src string, module *smv.Module, cfg smv.Config, extraLTL string) int {
	req := smvd.CheckRequest{Model: src, Config: cfg}
	for _, sp := range module.Specs {
		req.Specs = append(req.Specs, sp.Source)
	}
	for _, sp := range module.LTLSpecs {
		req.LTL = append(req.LTL, sp.Source)
	}
	if extraLTL != "" {
		req.LTL = append(req.LTL, extraLTL)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	hr, err := http.Post(strings.TrimRight(base, "/")+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(hr.Body)
		fmt.Fprintf(os.Stderr, "smvd: %s: %s\n", hr.Status, bytes.TrimSpace(msg))
		return 2
	}
	var resp smvd.CheckResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	nCTL := len(req.Specs)
	code := 0
	for i, v := range resp.Verdicts {
		kind := "specification"
		if i >= nCTL {
			kind = "LTL specification"
		}
		fmt.Printf("-- %s %s ", kind, v.Spec)
		switch {
		case v.Error != "":
			fmt.Printf("ERROR: %s\n", v.Error)
			code = 2
		case v.Holds:
			fmt.Println("is true")
		default:
			fmt.Println("is false")
			if code == 0 {
				code = 1
			}
			if v.Trace != "" {
				fmt.Println("-- as demonstrated by the following execution sequence:")
				fmt.Print(v.Trace)
			}
		}
	}
	warmth := "cold"
	if resp.Warm {
		warmth = "warm"
		if resp.WarmSource != "" {
			warmth = "warm (" + resp.WarmSource + ")"
		}
	}
	fmt.Printf("-- smvd: session %.12s %s, %.0f reachable states, %.1fms\n",
		resp.ModelKey, warmth, resp.ReachableStates, resp.ElapsedMs)
	return code
}

// printWitness prints a demonstration for satisfied specs whose
// top-level shape is existential (EF/EX/EG/EU) from some initial state.
func printWitness(c *smv.Compiled, gen *core.Generator, f *ctl.Formula, delta bool) {
	switch f.Kind {
	case ctl.KEX, ctl.KEU, ctl.KEG, ctl.KEF:
	default:
		return
	}
	start := c.S.PickState(c.S.Init)
	if start == nil {
		return
	}
	tr, err := gen.Witness(f, start)
	if err != nil {
		return
	}
	fmt.Println("-- witness execution sequence:")
	printTrace(c, tr, delta)
}

func printTrace(c *smv.Compiled, tr *core.Trace, delta bool) {
	if tr == nil {
		return
	}
	if delta {
		fmt.Print(c.DeltaTraceString(tr))
		return
	}
	fmt.Print(c.TraceString(tr))
}

var memProfilePath string

// exit stops the profilers (deferred functions do not survive os.Exit)
// and terminates with the given code.
func exit(code int) {
	pprof.StopCPUProfile()
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		f.Close()
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	exit(2)
}
