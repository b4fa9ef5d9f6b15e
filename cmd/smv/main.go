// Command smv is a small symbolic model checker in the style of the SMV
// system the paper describes: it reads a model in an SMV-like input
// language, checks every SPEC, and prints counterexample traces for the
// specifications that fail.
//
// Usage:
//
//	smv [-stats] [-delta] [-reachable] [-witness] [-compact] [-tree]
//	    [-reorder] [-ltl "formula"]
//	    [-simulate N -seed S] model.smv
//
// Besides SPEC (CTL) sections the input may contain LTLSPEC sections;
// each is checked by compiling the model in product with the Büchi
// tableau of the negated formula and testing fair emptiness. Failing
// LTL specifications produce a fair lasso (stem + cycle) over the model
// variables. A model that declares processes is checked through its
// disjunctive (per-process) image, any other through its conjunctive
// clusters.
//
// Flags:
//
//	-stats       print BDD and fixpoint statistics after checking
//	-ltl F       check LTL formula F in addition to the model's LTLSPECs
//	-reorder     enable dynamic variable reordering (growth-triggered sifting)
//	-delta       print traces showing only changed variables per state
//	-reachable   report the number of reachable states first
//	-witness     for specs that hold and are existential, print a witness
//	-compact     shorten traces with shortcut compaction (§9 extension)
//	-tree        print failures as hierarchical explanation trees (§9)
//	-simulate N  print a random N-step execution instead of checking
//	-server URL  send the model to a running smvd instead of checking
//	             locally (the server's session cache makes repeated
//	             checks of an unchanged model nearly free); it prints
//	             local mode's output plus a closing session line, and
//	             exits 2 on -simulate, -stats, -delta, -reachable,
//	             -witness, -compact, -tree or -cache-dir
//	-cache-dir D warm-start from (and refresh) smvd-format warm records:
//	             a prior run's variable order, reachable and fair sets,
//	             subformula results and onion rings are restored, so
//	             the specs it checked need no fixpoint
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
	if *server != "" {
		var refused []string
		flag.Visit(func(f *flag.Flag) {
			if localOnly[f.Name] {
				refused = append(refused, "-"+f.Name)
			}
		})
		if len(refused) > 0 {
			fmt.Fprintf(os.Stderr, "smv: -server cannot honour %s\n", strings.Join(refused, ", "))
			os.Exit(2)
		}
	}
	// A malformed -ltl fails before anything is checked, locally or on
	// a server.
	var extraLTL *ctl.Formula
	if *ltlSpec != "" {
		f, err := ctl.ParseLTL(*ltlSpec)
		if err != nil {
			fatal(err)
		}
		extraLTL = f
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

	checker := mc.New(compiled.S)
	gen := core.NewGenerator(checker)

	// Warm start: restore a previous run's variable order, fixpoint
	// results and checker state from the shared smvd record store, as an
	// smvd session does on a cache miss.
	var store *smvd.DiskStore
	var modelKey string
	var restored smvd.Restored
	warm := false
	if *cacheDir != "" {
		store, err = smvd.OpenDiskStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		modelKey = smvd.ModelKey(string(src), cfg)
		compiled.S.EnableReachableCache()
		restored, warm, err = store.WarmStart(modelKey, compiled, checker)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: warm-start load failed: %v\n", err)
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

	if store != nil && !warm {
		// Run the fixpoints now so a record can be written on exit; the
		// care-set restriction matches what a warmed run uses, so cold
		// and warm runs check identically.
		checker.UseReachableCareSet()
		checker.Fair()
	}
	exitCode := 0
	for _, sp := range compiled.Module.Specs {
		fmt.Printf("-- specification %s ", sp.Source)
		v, err := compiled.CheckCTL(gen, sp.Formula)
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			continue
		}
		if v.Holds {
			fmt.Println("is true")
			if *witness {
				printWitness(compiled, gen, sp.Formula, *delta)
			}
			continue
		}
		fmt.Println("is false")
		exitCode = max(exitCode, 1)
		tr := v.Trace
		if *tree {
			start := tr.States[0] // the failing initial state
			if node, terr := gen.CounterexampleTree(sp.Formula, start); terr == nil {
				fmt.Println("-- explanation:")
				fmt.Print(node.Render(func(st kripke.State) string {
					return compiled.FormatStateByVars(st)
				}))
				continue
			}
		}
		if *compact {
			core.Compact(compiled.S, tr)
		}
		fmt.Println("-- as demonstrated by the following execution sequence:")
		printTrace(compiled, tr, *delta)
	}

	// LTL specifications: each check compiles a fresh product of the
	// model with the tableau of the negated formula, on its own BDD
	// manager under the model's config.
	ltlSpecs := append([]*smv.LTLSpec(nil), compiled.Module.LTLSpecs...)
	if extraLTL != nil {
		ltlSpecs = append(ltlSpecs, &smv.LTLSpec{Source: *ltlSpec, Formula: extraLTL})
	}
	for _, sp := range ltlSpecs {
		fmt.Printf("-- LTL specification %s ", sp.Source)
		v, err := compiled.CheckLTL(sp.Formula, sp.Source)
		if err != nil {
			fmt.Printf("ERROR: %v\n", err)
			exitCode = 2
			continue
		}
		p := v.Product
		if v.Holds {
			fmt.Println("is true")
		} else {
			fmt.Println("is false")
			exitCode = max(exitCode, 1)
			fmt.Println("-- as demonstrated by the following fair execution sequence:")
			printTrace(p.Compiled, v.Trace, *delta)
		}
		if *stats {
			rel := p.S.RelStats()
			parts := fmt.Sprintf("%d clusters", p.S.NumClusters())
			if n := p.S.NumDisjuncts(); n > 0 {
				parts = fmt.Sprintf("%d components", n)
			}
			fmt.Printf("-- LTL product: %d tableau variables, %d fairness sets, %s, "+
				"%d live nodes (peak %d in chains), %d fair-EG outer iterations\n",
				len(p.ElemVars), len(p.S.Fair), parts,
				p.S.M.NumNodes(), rel.PeakLiveNodes, v.FairEGOuter)
		}
	}

	if *stats {
		m := compiled.S.M
		fmt.Printf("\n-- statistics\n")
		fmt.Printf("state variables:    %d (BDD variables: %d)\n", len(compiled.S.Vars), m.NumVars())
		fmt.Printf("live BDD nodes:     %d\n", m.NumNodes())
		// bdd.Stats.CacheHits also counts AndExists hits, whose lookups
		// are in AndExistsLookups: subtract them to pair the hits of ITE
		// and the quantifiers with their lookups.
		fmt.Printf("ITE calls:          %d (cache hits %d / lookups %d)\n",
			m.Stats.ITECalls, m.Stats.CacheHits-m.Stats.AndExistsHits, m.Stats.CacheLookups)
		rel := compiled.S.RelStats()
		fmt.Printf("computed cache:     %.1f%% hit rate (%d hits / %d lookups), %d entries after %d growths, "+
			"unique-table load %.2f, complement edges %v\n",
			100*rel.CacheHitRate(), rel.CacheHits, rel.CacheLookups, m.CacheSize(), m.Stats.CacheGrowths,
			rel.UniqueTableLoad, !m.ComplementEdgesDisabled())
		fmt.Printf("EU fixpoints:       %d (%d iterations)\n",
			checker.Stats.EUFixpoints, checker.Stats.EUIterations)
		fmt.Printf("EG fixpoints:       %d (%d iterations, %d fair outer)\n",
			checker.Stats.EGFixpoints, checker.Stats.EGIterations, checker.Stats.FairEGOuter)
		fmt.Printf("peak BDD nodes:     %d\n", checker.Stats.PeakNodes)
		fmt.Printf("transition clusters: %d (preimages %d, images %d, cluster steps %d, peak %d nodes in chains)\n",
			compiled.S.NumClusters(), rel.PreimageCalls, rel.ImageCalls, rel.ClusterSteps, rel.PeakLiveNodes)
		if n := compiled.S.NumDisjuncts(); n > 0 {
			fmt.Printf("disjunctive components: %d (disjunct steps %d)\n", n, rel.DisjunctSteps)
		}
		fmt.Printf("checker preimages:  %d (%d cluster steps, %d disjunct steps, AndExists cache hits %d / lookups %d)\n",
			checker.Stats.PreimageCalls, checker.Stats.ClusterSteps, checker.Stats.DisjunctSteps,
			checker.Stats.AndExistsHits, checker.Stats.AndExistsLookups)
		fmt.Printf("witness ring steps: %d (restarts %d, %d single-state images, %d ring reuses, "+
			"%d walk closures, %d walk fallbacks)\n",
			gen.Stats.RingSteps, gen.Stats.Restarts, gen.Stats.ImageCalls, checker.Stats.RingReuses,
			gen.Stats.WalkClosures, gen.Stats.WalkFallbacks)
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
		if store != nil {
			source := "cold"
			if warm {
				source = "disk"
			}
			fmt.Printf("warm start:         %s (%d restored sets, %d restored rings)\n",
				source, restored.Sets, restored.Rings)
		}
	}
	if store != nil {
		if err := store.SaveWarm(modelKey, cfg, compiled, checker); err != nil {
			fmt.Fprintf(os.Stderr, "warning: warm-record save failed: %v\n", err)
		}
	}
	exit(exitCode)
}

// localOnly holds the flags -server mode cannot honour: smvd renders
// every verdict one way and answers only the specs, so it neither
// simulates nor prints statistics, reachable counts, witnesses, trees,
// compacted or delta traces, and the warm records it reads are its own.
var localOnly = map[string]bool{
	"simulate": true, "stats": true, "delta": true, "reachable": true,
	"witness": true, "compact": true, "tree": true, "cache-dir": true,
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
		kind, sequence := "specification", "execution sequence"
		if i >= nCTL {
			kind, sequence = "LTL specification", "fair execution sequence"
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
			code = max(code, 1)
			fmt.Printf("-- as demonstrated by the following %s:\n", sequence)
			fmt.Print(v.Trace)
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
