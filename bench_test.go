// Package repro's root benchmark harness: one benchmark per evaluation
// artifact of the paper (see DESIGN.md §2 and EXPERIMENTS.md), plus
// micro-benchmarks for the BDD substrate. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/bdd"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/ctlstar"
	"repro/internal/explicit"
	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// --- E1: the Seitz arbiter case study ---------------------------------

// BenchmarkArbiterReachability measures the symbolic reachability sweep
// of the arbiter (paper: 33,633 states, "a few minutes" total).
func BenchmarkArbiterReachability(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Reachable()
	}
}

// BenchmarkArbiterCounterexample measures end-to-end counterexample
// generation for AG(tr1 -> AF ta1), the paper's headline experiment.
func BenchmarkArbiterCounterexample(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		ok, tr, err := gen.CounterexampleInit(spec)
		if err != nil || ok || tr == nil {
			b.Fatalf("expected counterexample: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkArbiterFullVerification checks all four arbiter specs.
func BenchmarkArbiterFullVerification(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	var specs []*ctl.Formula
	for _, s := range circuit.ArbiterSpecs {
		specs = append(specs, ctl.MustParse(s))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		for _, f := range specs {
			if _, _, err := gen.CounterexampleInit(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E2/E3: witness construction across SCC shapes --------------------

func figure1Model() *kripke.Explicit {
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddInit(0)
	e.AddFairSet("h1", []bool{false, true, false})
	e.AddFairSet("h2", []bool{false, false, true})
	return e
}

func sccChain(depth int) *kripke.Explicit {
	e := kripke.NewExplicit(2 * depth)
	h1 := make([]bool, 2*depth)
	h2 := make([]bool, 2*depth)
	for i := 0; i < depth; i++ {
		a, c := 2*i, 2*i+1
		e.AddEdge(a, c)
		e.AddEdge(c, a)
		if i < depth-1 {
			e.AddEdge(c, a+2)
		}
		h1[a] = true
		if i == depth-1 {
			h2[c] = true
		}
	}
	e.AddInit(0)
	e.AddFairSet("h1", h1)
	e.AddFairSet("h2", h2)
	return e
}

// BenchmarkWitnessSingleSCC: Figure 1 — the cycle closes immediately.
func BenchmarkWitnessSingleSCC(b *testing.B) {
	s := kripke.FromExplicit(figure1Model())
	start := kripke.IndexState(0, len(s.Vars))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(s))
		if _, err := gen.WitnessEG(bdd.True, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWitnessMultiSCC: Figure 2 — the walk restarts down the SCC
// DAG; parameterized by chain depth and strategy.
func BenchmarkWitnessMultiSCC(b *testing.B) {
	for _, depth := range []int{3, 6, 12} {
		e := sccChain(depth)
		s := kripke.FromExplicit(e)
		start := kripke.IndexState(0, len(s.Vars))
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategyPrecompute} {
			b.Run(fmt.Sprintf("depth=%d/strategy=%s", depth, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gen := core.NewGenerator(mc.New(s))
					gen.Strategy = strat
					if _, err := gen.WitnessEG(bdd.True, start); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: minimal vs heuristic witnesses (Theorem 1) -------------------

// BenchmarkMinimalWitnessBruteForce: the NP-complete exact problem.
func BenchmarkMinimalWitnessBruteForce(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		r := rand.New(rand.NewSource(int64(n)))
		e := kripke.RandomExplicit(r, n, 2, nil, 2, 0.3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.MinimalFiniteWitness(e, e.Init[0], e.N*(len(e.Fair)+1))
			}
		})
	}
}

// BenchmarkHeuristicWitness: the paper's polynomial heuristic on the
// same instances.
func BenchmarkHeuristicWitness(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		r := rand.New(rand.NewSource(int64(n)))
		e := kripke.RandomExplicit(r, n, 2, nil, 2, 0.3)
		s := kripke.FromExplicit(e)
		start := kripke.IndexState(e.Init[0], len(s.Vars))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			probe := core.NewGenerator(mc.New(s))
			if !s.Holds(probe.C.Fair(), start) {
				b.Skipf("n=%d: start state is unfair", n)
			}
			for i := 0; i < b.N; i++ {
				gen := core.NewGenerator(mc.New(s))
				if _, err := gen.WitnessEG(bdd.True, start); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHamiltonianReduction exercises the Theorem 1 reduction.
func BenchmarkHamiltonianReduction(b *testing.B) {
	succ := [][]int{{1}, {2}, {3}, {4}, {0}} // 5-ring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !graph.HamiltonianViaWitness(succ) {
			b.Fatal("ring must be Hamiltonian")
		}
	}
}

// --- E5: the CTL* fragment (Section 7) --------------------------------

func ctlstarModel() *kripke.Symbolic {
	r := rand.New(rand.NewSource(5))
	e := kripke.RandomExplicit(r, 24, 3, []string{"p", "q"}, 1, 0.3)
	return kripke.FromExplicit(e)
}

// BenchmarkCTLStarCheck compares the Emerson–Lei fixpoint against the
// exponential case split.
func BenchmarkCTLStarCheck(b *testing.B) {
	s := ctlstarModel()
	f := ctlstar.MustParse("E (GF p | FG q) & (GF q | FG p)")
	b.Run("emerson-lei", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := ctlstar.New(mc.New(s))
			if _, err := sc.CheckEL(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("case-split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := ctlstar.New(mc.New(s))
			if _, err := sc.CheckSplit(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCTLStarWitness measures fragment witness generation.
func BenchmarkCTLStarWitness(b *testing.B) {
	s := ctlstarModel()
	f := ctlstar.MustParse("E (GF p | FG q) & (GF q | FG p)")
	sc := ctlstar.New(mc.New(s))
	set, err := sc.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := s.Reachable()
	states := s.EnumStates(s.M.And(reach, set), 1)
	if len(states) == 0 {
		b.Skip("formula unsatisfied on this model")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := ctlstar.New(mc.New(s))
		if _, err := sc.Witness(f, states[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Streett containment (Section 8) ------------------------------

// BenchmarkStreettContainment measures a failing containment check
// including counterexample word extraction.
func BenchmarkStreettContainment(b *testing.B) {
	mkAll := func() *automata.Streett {
		a := automata.NewStreett("all", 1, []string{"a", "b"})
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 0)
		a.AddPair("trivial", []int{0}, nil)
		return a
	}
	mkInfA := func() *automata.Streett {
		a := automata.NewStreett("infA", 2, []string{"a", "b"})
		a.Init = 1
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 1)
		a.AddTrans(1, "a", 0)
		a.AddTrans(1, "b", 1)
		a.AddPair("inf-a", nil, []int{0})
		return a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := automata.CheckContainment(mkAll(), mkInfA())
		if err != nil || res.Contained {
			b.Fatalf("containment must fail: %v", err)
		}
	}
}

// --- E7: symbolic vs explicit (the EMC baseline) ----------------------

// BenchmarkSymbolicVsExplicit contrasts symbolic reachability with
// explicit enumeration on chained arbiters.
func BenchmarkSymbolicVsExplicit(b *testing.B) {
	for _, k := range []int{1, 2} {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("symbolic/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		if k == 1 {
			b.Run(fmt.Sprintf("explicit/k=%d", k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := model.ToExplicit(0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExplicitCTL measures the EMC-style checker on an enumerated
// arbiter, for comparison with the symbolic one.
func BenchmarkExplicitCTL(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	e, _, err := model.ToExplicit(0)
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := explicit.New(e)
		if _, err := c.Check(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicCTL is the symbolic counterpart of
// BenchmarkExplicitCTL (checking only, no counterexample).
func BenchmarkSymbolicCTL(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mc.New(model)
		if _, err := c.Check(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- BDD substrate micro-benchmarks ------------------------------------

// BenchmarkBDDIte builds a dense random function tree.
func BenchmarkBDDIte(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := bdd.New(16)
		f := bdd.False
		for v := 0; v < 16; v++ {
			f = m.Xor(f, m.Var(v))
		}
		g := bdd.True
		for v := 0; v < 16; v += 2 {
			g = m.And(g, m.Or(m.Var(v), m.Var(v+1)))
		}
		m.Ite(f, g, m.Not(g))
	}
}

// BenchmarkRelationalProduct measures the fused AndExists on the
// arbiter's transition relation — the checker's inner loop.
func BenchmarkRelationalProduct(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Preimage(reach)
	}
}

// BenchmarkSatCount measures model counting on the reachable set.
func BenchmarkSatCount(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.CountStates(reach)
	}
}

// BenchmarkPartitionedVsMonolithic is the E11 ablation: early-quantified
// clustered image computation vs. the monolithic relation.
func BenchmarkPartitionedVsMonolithic(b *testing.B) {
	for _, k := range []int{1, 2} {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("partitioned/k=%d", k), func(b *testing.B) {
			model.EnablePartition(true)
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		b.Run(fmt.Sprintf("monolithic/k=%d", k), func(b *testing.B) {
			model.EnablePartition(false)
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		model.EnablePartition(true)
	}
}

// BenchmarkTreeArbiterHazard measures the second case study (E12): the
// stale-ack hazard hunt on the 4-user tree arbiter.
func BenchmarkTreeArbiterHazard(b *testing.B) {
	model, err := circuit.TreeArbiter(2).Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse(circuit.TreeArbiterMutexSpec(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		ok, _, err := gen.CounterexampleInit(spec)
		if err != nil || ok {
			b.Fatalf("hazard must be found: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkTraceCompaction measures the Section 9 extension on the
// arbiter counterexample.
func BenchmarkTraceCompaction(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		_, tr, err := gen.CounterexampleInit(spec)
		if err != nil {
			b.Fatal(err)
		}
		core.Compact(model, tr)
	}
}

// BenchmarkBDDSerialization round-trips the arbiter's reachable set.
func BenchmarkBDDSerialization(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := model.M.SaveNamed(&buf, []bdd.NamedRoot{{Name: "reach", Ref: reach}}); err != nil {
			b.Fatal(err)
		}
		if _, err := model.M.LoadNamed(&buf, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReorder measures offline variable reordering on an
// interleaving-sensitive function.
func BenchmarkReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bdd.New(12)
		f := bdd.True
		for v := 0; v < 6; v++ {
			f = m.And(f, m.Eq(m.Var(v), m.Var(v+6)))
		}
		order := make([]int, 12)
		for v := 0; v < 6; v++ {
			order[2*v] = v
			order[2*v+1] = v + 6
		}
		m.Protect(f)
		m.Reorder(order)
	}
}

// --- BENCH_engine.json: the engine artifact ---------------------------
//
// TestRecordBench is gated behind BENCH_RECORD=1 and writes
// BENCH_engine.json, the artifact the CI bench-smoke job gates with
// cmd/benchgate. Each row of benchRows runs one model under one image
// (the partition the model installs, conjunctive or, for a model that
// declares processes, disjunctive; or the monolithic relation), one
// reordering profile (off;
// default, bdd.DefaultReorderOptions; eager, modelgen.LatticeReorder)
// and one workload:
//
//	reach+ex3    the reachability fixpoint, then three preimages of it
//	bfs-10       ten frontier steps, for sizes whose reachable set is
//	             itself out of reach
//	trans-build  conjoining the clusters into the monolithic relation
//	             under a node budget; at 6 and 8 arbiter cells it gives
//	             out, which is the paper's point: the conjunction is the
//	             object partitioning avoids
//	specs        every SPEC (kind ctl: check, then counterexample) or
//	             LTLSPEC (kind ltl: the tableau product) of the model
//	smvd         the session cache: cold compile, warm query, sustained
//	             load, and a restart from the on-disk record
//
// A specs row expands to one entry per spec and the smvd row to one per
// phase. Every verdict is held to its truth table and every trace is
// validated or replayed, so a fast but wrong run is never recorded, and
// benchChecks holds the rows to the claims the artifact exists to show.

// benchRow is one row of the bench table. Its fields, with an entry's
// spec and phase, are the identity cmd/benchgate keys entries by.
type benchRow struct {
	Model    string `json:"model"`
	Image    string `json:"image"`
	Reorder  string `json:"reorder"`
	Workload string `json:"workload"`
	Kind     string `json:"kind,omitempty"` // specs rows: ctl | ltl
}

type benchEntry struct {
	benchRow
	Spec  string `json:"spec,omitempty"`
	Phase string `json:"phase,omitempty"`

	Holds           *bool   `json:"holds,omitempty"`
	Completed       bool    `json:"completed"`
	WallMS          float64 `json:"wall_ms"`
	PeakLiveNodes   int     `json:"peak_live_nodes,omitempty"`
	FinalLiveNodes  int     `json:"final_live_nodes,omitempty"`
	ReachableStates float64 `json:"reachable_states,omitempty"`
	ReachIters      int     `json:"reach_iters,omitempty"`

	ImageCalls       uint64 `json:"image_calls,omitempty"`
	PreimageCalls    uint64 `json:"preimage_calls,omitempty"`
	ClusterSteps     uint64 `json:"cluster_steps,omitempty"`
	DisjunctSteps    uint64 `json:"disjunct_steps,omitempty"`
	AndExistsLookups uint64 `json:"and_exists_lookups,omitempty"`
	AndExistsHits    uint64 `json:"and_exists_hits,omitempty"`
	Clusters         int    `json:"clusters,omitempty"`
	SumClusterNodes  int    `json:"sum_cluster_nodes,omitempty"`
	Components       int    `json:"components,omitempty"`
	TransNodes       int    `json:"trans_nodes,omitempty"`

	SiftEvents   uint64  `json:"sift_events,omitempty"`
	SiftPasses   uint64  `json:"sift_passes,omitempty"`
	SiftTrials   uint64  `json:"sift_trials,omitempty"`
	SiftSwaps    uint64  `json:"sift_swaps,omitempty"`
	SiftAborts   uint64  `json:"sift_aborts,omitempty"`
	SiftTimeouts uint64  `json:"sift_timeouts,omitempty"`
	ReorderMS    float64 `json:"reorder_ms,omitempty"`
	NodesSaved   int64   `json:"nodes_saved,omitempty"`

	TableauVars  int `json:"tableau_vars,omitempty"`
	FairnessSets int `json:"fairness_sets,omitempty"`
	LassoStem    int `json:"lasso_stem,omitempty"`
	LassoCycle   int `json:"lasso_cycle,omitempty"`
	// On failing CTL specs: the BDD lookups (see lookups) of the check
	// and of CounterexampleInit after it. witness_lookups over
	// check_lookups is the deterministic twin of perfbench's
	// core.witness_over_check.
	CheckLookups   uint64 `json:"check_lookups,omitempty"`
	WitnessLookups uint64 `json:"witness_lookups,omitempty"`

	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// The manager's footprint, computed table included (bdd's Bytes),
	// over its allocated nodes at the end of the row.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
	WarmSpeedup  float64 `json:"warm_speedup,omitempty"`
	QPS          float64 `json:"qps,omitempty"`
	Queries      int     `json:"queries,omitempty"`
	Note         string  `json:"note,omitempty"`
}

// benchRows is the bench table.
func benchRows() []benchRow {
	var rows []benchRow
	add := func(model, image, reorder, workload string) {
		rows = append(rows, benchRow{Model: model, Image: image, Reorder: reorder, Workload: workload})
	}
	// Conjunctive partitioning against the monolithic relation: on the
	// full fixpoint where both fit, on the capped build where only the
	// partition does.
	for _, m := range []string{"seitz.smv", "scaled-arbiter-k2"} {
		add(m, "conjunctive", "off", "reach+ex3")
		add(m, "monolithic", "off", "reach+ex3")
	}
	for _, m := range []string{"scaled-arbiter-k3", "scaled-arbiter-k4"} {
		add(m, "monolithic", "off", "trans-build")
	}
	// Dynamic reordering on the bounded sweep.
	for _, m := range []string{"scaled-arbiter-k2", "scaled-arbiter-k3", "scaled-arbiter-k4"} {
		add(m, "conjunctive", "off", "bfs-10")
		add(m, "conjunctive", "default", "bfs-10")
	}
	add("scaled-ring-8", "disjunctive", "off", "bfs-10")
	add("scaled-ring-8", "disjunctive", "default", "bfs-10")
	// Each model's partition against the monolithic relation: the
	// conjunctive one of the synchronous models, the disjunctive one of
	// the interleaved models.
	for _, m := range []string{"dining.smv", "mutex.smv"} {
		add(m, "conjunctive", "off", "reach+ex3")
		add(m, "monolithic", "off", "reach+ex3")
	}
	for _, m := range []string{"ring.smv", "scaled-ring-8"} {
		add(m, "monolithic", "off", "reach+ex3")
		add(m, "disjunctive", "off", "reach+ex3")
	}
	// Specs: the LTL tableau products of the protocol models, and the
	// scenario corpus (shipped and scaled) under eager sifting.
	specs := func(model, image, reorder string, kinds ...string) {
		for _, k := range kinds {
			rows = append(rows, benchRow{Model: model, Image: image, Reorder: reorder, Workload: "specs", Kind: k})
		}
	}
	specs("abp.smv", "conjunctive", "off", "ltl")
	specs("peterson.smv", "disjunctive", "off", "ltl")
	for _, m := range []string{"hanoi.smv", "chase.smv", "hanoi-7", "chase-16"} {
		specs(m, "conjunctive", "eager", "ctl", "ltl")
	}
	add("arbiter-8", "conjunctive", "off", "smvd")
	return rows
}

// smvdPhases names the smvd row's entries, in the order recordSmvd
// fills them.
var smvdPhases = []string{"cold_compile", "warm_query", "sustained", "warm_restart"}

// benchSource returns a bench model's SMV source: the generated ones by
// name, the rest from models/.
func benchSource(model string) (string, error) {
	switch model {
	case "hanoi-7":
		return modelgen.HanoiSource(7), nil
	case "chase-16":
		return modelgen.ChaseSource(16), nil
	case "scaled-ring-8":
		return scaledRingSource(8), nil
	case "arbiter-8":
		return modelgen.ArbiterSource(8), nil
	}
	src, err := os.ReadFile("models/" + model)
	return string(src), err
}

// benchTruth returns the verdict table a specs model is held to. The
// scaled instances keep their shipped model's verdicts: the puzzle
// stays solvable and the evader still escapes.
func benchTruth(model string) struct{ ctl, ltl []bool } {
	switch model {
	case "hanoi-7":
		model = "hanoi.smv"
	case "chase-16":
		model = "chase.smv"
	}
	return scenarioVerdicts[model]
}

// compileBench compiles a fresh instance of a bench model, so cache and
// node-table state never leak between rows.
func compileBench(model string) (*kripke.Symbolic, error) {
	var k int
	if _, err := fmt.Sscanf(model, "scaled-arbiter-k%d", &k); err == nil {
		return circuit.ScaledArbiter(k).Compile()
	}
	src, err := benchSource(model)
	if err != nil {
		return nil, err
	}
	c, err := smv.CompileSource(src, smv.Config{})
	if err != nil {
		return nil, err
	}
	return c.S, nil
}

// entries returns the row's entries with only their identity set: one
// per spec of the row's kind, in declaration order, for a specs row;
// one per phase for the smvd row; one otherwise. Specs are enumerated
// by parsing alone.
func (r benchRow) entries() ([]benchEntry, error) {
	switch r.Workload {
	case "specs":
		src, err := benchSource(r.Model)
		if err != nil {
			return nil, err
		}
		mod, err := smv.ParseModule(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", r.Model, err)
		}
		var out []benchEntry
		if r.Kind == "ctl" {
			for _, sp := range mod.Specs {
				out = append(out, benchEntry{benchRow: r, Spec: sp.Formula.String()})
			}
		} else {
			for _, sp := range mod.LTLSpecs {
				out = append(out, benchEntry{benchRow: r, Spec: sp.Formula.String()})
			}
		}
		return out, nil
	case "smvd":
		out := make([]benchEntry, len(smvdPhases))
		for i, p := range smvdPhases {
			out[i] = benchEntry{benchRow: r, Phase: p}
		}
		return out, nil
	}
	return []benchEntry{{benchRow: r}}, nil
}

const (
	benchGCThreshold  = 1 << 16 // tight threshold: peaks reflect live sets
	bfsSteps          = 10
	transNodeBudget   = 2_000_000
	transBuildTimeout = 30 * time.Second
)

func TestRecordBench(t *testing.T) {
	if os.Getenv("BENCH_RECORD") != "1" {
		t.Skip("set BENCH_RECORD=1 to record BENCH_engine.json")
	}
	t0 := time.Now()
	var entries []benchEntry
	for _, r := range benchRows() {
		runs := make([][]benchEntry, benchRepeats)
		for i := range runs {
			es, err := r.entries()
			if err != nil {
				t.Fatal(err)
			}
			switch r.Workload {
			case "reach+ex3", "bfs-10":
				recordImages(t, r, &es[0])
			case "trans-build":
				recordTransBuild(t, r, &es[0])
			case "specs":
				recordSpecs(t, r, es)
			case "smvd":
				recordSmvd(t, es)
			default:
				t.Fatalf("%s: unknown workload %q", r.Model, r.Workload)
			}
			runs[i] = es
		}
		entries = append(entries, medianRun(t, runs)...)
	}
	for _, v := range benchChecks(entries) {
		t.Error(v)
	}
	if t.Failed() {
		t.Fatal("refusing to record a run that breaks the artifact's claims")
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_engine.json with %d entries in %v", len(entries), time.Since(t0).Round(time.Millisecond))
}

// benchRepeats is how many times every row runs. Wall and reordering
// times, and the smvd ratios built from them, are the median of the
// runs; every other field must come out the same in each.
const benchRepeats = 3

// medianRun folds a row's repeated runs into one: the first run's
// counters, which every run must repeat, with median times.
func medianRun(t *testing.T, runs [][]benchEntry) []benchEntry {
	t.Helper()
	untimed := func(e benchEntry) string {
		e.WallMS, e.ReorderMS, e.WarmSpeedup, e.QPS, e.Note = 0, 0, 0, 0, ""
		b, _ := json.Marshal(e)
		return string(b)
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	out := runs[0]
	for j := range out {
		var wall, reorder, speedup, qps []float64
		for _, es := range runs {
			if a, b := untimed(out[j]), untimed(es[j]); a != b {
				t.Fatalf("repeated runs disagree beyond their times:\n%s\n%s", a, b)
			}
			wall, reorder = append(wall, es[j].WallMS), append(reorder, es[j].ReorderMS)
			speedup, qps = append(speedup, es[j].WarmSpeedup), append(qps, es[j].QPS)
		}
		out[j].WallMS, out[j].ReorderMS = median(wall), median(reorder)
		out[j].WarmSpeedup, out[j].QPS = median(speedup), median(qps)
	}
	return out
}

// startRow checks that s installs the row's image, or bypasses its
// partition for a monolithic row, switches on the row's reordering
// profile and opens the measured window, returning the manager counters
// the window starts from. Rows off the eager profile collect the compile's garbage
// first, so their peaks reflect live sets; eager rows keep it, as the
// modelgen lattice does, so their growth trigger counts from the arena
// the compile left.
func startRow(t *testing.T, s *kripke.Symbolic, r benchRow) bdd.Stats {
	t.Helper()
	s.M.SetGCThreshold(benchGCThreshold)
	switch r.Image {
	case "monolithic":
		s.EnablePartition(false)
	case "conjunctive":
		if s.NumClusters() == 0 {
			t.Fatalf("%s: no clusters for the conjunctive image", r.Model)
		}
	case "disjunctive":
		if s.NumDisjuncts() == 0 {
			t.Fatalf("%s: no disjuncts for the disjunctive image", r.Model)
		}
	default:
		t.Fatalf("%s: unknown image %q", r.Model, r.Image)
	}
	switch r.Reorder {
	case "off":
	case "default":
		s.M.EnableAutoReorder(nil)
	case "eager":
		opts := modelgen.LatticeReorder
		s.M.EnableAutoReorder(&opts)
	default:
		t.Fatalf("%s: unknown reordering profile %q", r.Model, r.Reorder)
	}
	if r.Reorder != "eager" {
		s.M.GC()
	}
	s.ResetRelStats()
	return s.M.Stats
}

// measure fills e's counters from the window startRow opened.
func measure(e *benchEntry, s *kripke.Symbolic, st0 bdd.Stats, wall time.Duration) {
	m := s.M
	rs, st := s.RelStats(), m.Stats
	e.Completed = true
	e.WallMS = float64(wall.Microseconds()) / 1000
	e.PeakLiveNodes = rs.PeakLiveNodes
	e.FinalLiveNodes = m.NumNodes()
	e.ImageCalls, e.PreimageCalls = rs.ImageCalls, rs.PreimageCalls
	e.ClusterSteps, e.DisjunctSteps = rs.ClusterSteps, rs.DisjunctSteps
	e.AndExistsLookups = st.AndExistsLookups - st0.AndExistsLookups
	e.AndExistsHits = st.AndExistsHits - st0.AndExistsHits
	e.Clusters, e.Components = s.NumClusters(), s.NumDisjuncts()
	for _, c := range s.Partition().Clusters() {
		e.SumClusterNodes += m.Size(c)
	}
	e.SiftEvents = st.AutoReorders - st0.AutoReorders
	e.SiftPasses = st.SiftPasses - st0.SiftPasses
	e.SiftTrials = st.SiftTrials - st0.SiftTrials
	e.SiftSwaps = st.SiftSwaps - st0.SiftSwaps
	e.SiftAborts = st.SiftAborts - st0.SiftAborts
	e.SiftTimeouts = st.SiftTimeouts - st0.SiftTimeouts
	e.ReorderMS = float64((st.ReorderTime - st0.ReorderTime).Microseconds()) / 1000
	e.NodesSaved = st.ReorderSavedNodes - st0.ReorderSavedNodes
	e.CacheHitRate = rs.CacheHitRate()
	e.BytesPerNode = float64(m.Bytes()) / float64(m.NumNodes())
}

// recordImages runs the reach+ex3 or bfs-10 workload. A monolithic row
// builds its relation inside the window, on the first image.
func recordImages(t *testing.T, r benchRow, e *benchEntry) {
	s, err := compileBench(r.Model)
	if err != nil {
		t.Fatalf("%s: %v", r.Model, err)
	}
	st0 := startRow(t, s, r)
	t0 := time.Now()
	var reach bdd.Ref
	if r.Workload == "bfs-10" {
		boundedBFS(s)
	} else {
		reach, _ = s.Reachable()
		pre := reach
		for i := 0; i < 3; i++ {
			pre = s.Preimage(pre)
		}
	}
	measure(e, s, st0, time.Since(t0))
	if r.Workload == "reach+ex3" {
		e.ReachableStates = s.CountStates(reach)
	}
	if r.Image == "monolithic" {
		e.TransNodes = s.M.Size(s.Trans())
	}
}

// boundedBFS runs up to bfsSteps frontier steps from s.Init. The
// reached and frontier sets are protected, so a sift fired inside Image
// keeps them; both are released, uncollected, on return.
func boundedBFS(s *kripke.Symbolic) {
	m := s.M
	reached := m.Protect(s.Init)
	frontier := m.Protect(s.Init)
	for i := 0; i < bfsSteps && frontier != bdd.False; i++ {
		img := s.Image(frontier)
		m.Unprotect(frontier)
		frontier = m.Protect(m.Diff(img, reached))
		m.Unprotect(reached)
		reached = m.Protect(m.Or(reached, frontier))
		m.MaybeGC()
	}
	m.Unprotect(frontier)
	m.Unprotect(reached)
}

// recordTransBuild conjoins the clusters into the monolithic relation
// under the node and time budget, recording where it gives out. It
// takes no image, so it skips startRow: the budget counts every node
// the arena holds, the compile's garbage included.
func recordTransBuild(t *testing.T, r benchRow, e *benchEntry) {
	s, err := compileBench(r.Model)
	if err != nil {
		t.Fatalf("%s: %v", r.Model, err)
	}
	m, p := s.M, s.Partition()
	m.SetGCThreshold(benchGCThreshold)
	st0 := m.Stats
	t0 := time.Now()
	acc := m.Protect(bdd.True)
	aborted := 0
	for i, c := range p.Clusters() {
		next := m.Protect(m.And(acc, c))
		m.Unprotect(acc)
		acc = next
		if m.NumNodes() > transNodeBudget || time.Since(t0) > transBuildTimeout {
			aborted = i + 1
			break
		}
	}
	measure(e, s, st0, time.Since(t0))
	e.PeakLiveNodes = m.NumNodes()
	if aborted > 0 {
		e.Completed = false
		e.Note = fmt.Sprintf("monolithic Trans BDD aborted at cluster %d/%d: node budget %d exceeded; partial conjunction already %d nodes",
			aborted, s.NumClusters(), transNodeBudget, m.Size(acc))
	} else {
		e.TransNodes = m.Size(acc)
	}
	m.Unprotect(acc)
}

// recordSpecs checks every spec of the row's kind on its own manager:
// a fresh compile per SPEC, a fresh tableau product per LTLSPEC.
func recordSpecs(t *testing.T, r benchRow, es []benchEntry) {
	src, err := benchSource(r.Model)
	if err != nil {
		t.Fatal(err)
	}
	truth := benchTruth(r.Model)
	want := truth.ctl
	if r.Kind == "ltl" {
		want = truth.ltl
	}
	if len(es) != len(want) {
		t.Fatalf("%s: %d %s specs but %d expected verdicts", r.Model, len(es), r.Kind, len(want))
	}
	var base *smv.Compiled
	if r.Kind == "ltl" {
		if base, err = smv.CompileSource(src, smv.Config{}); err != nil {
			t.Fatalf("%s: %v", r.Model, err)
		}
	}
	for i := range es {
		e := &es[i]
		var holds bool
		if r.Kind == "ctl" {
			holds = recordCTL(t, r, e, src, i)
		} else {
			holds = recordLTL(t, r, e, base, i)
		}
		if holds != want[i] {
			t.Fatalf("%s %s: got %v, want %v — refusing to record a wrong run", r.Model, e.Spec, holds, want[i])
		}
		e.Holds = &holds
	}
}

func recordCTL(t *testing.T, r benchRow, e *benchEntry, src string, i int) bool {
	c, err := smv.CompileSource(src, smv.Config{})
	if err != nil {
		t.Fatalf("%s: %v", r.Model, err)
	}
	st0 := startRow(t, c.S, r)
	f := c.Module.Specs[i].Formula
	t0 := time.Now()
	checker := mc.New(c.S)
	gen := core.NewGenerator(checker)
	before := lookups(c.S.M)
	if _, err := checker.Check(f); err != nil {
		t.Fatalf("%s %s: %v", r.Model, e.Spec, err)
	}
	checked := lookups(c.S.M)
	holds, tr, err := gen.CounterexampleInit(f)
	wall := time.Since(t0)
	witnessed := lookups(c.S.M)
	if err != nil {
		t.Fatalf("%s %s: %v", r.Model, e.Spec, err)
	}
	measure(e, c.S, st0, wall)
	e.FairnessSets = len(c.S.Fair)
	if tr != nil {
		if err := core.ValidatePath(c.S, tr); err != nil {
			t.Fatalf("%s %s: invalid trace: %v", r.Model, e.Spec, err)
		}
		e.LassoStem, e.LassoCycle = tr.CycleStart, len(tr.States)-tr.CycleStart
		if !tr.IsLasso() {
			e.LassoStem, e.LassoCycle = len(tr.States), 0
		}
		e.CheckLookups = checked - before
		e.WitnessLookups = witnessed - checked
	}
	checker.Close()
	return holds
}

func recordLTL(t *testing.T, r benchRow, e *benchEntry, base *smv.Compiled, i int) bool {
	sp := base.Module.LTLSpecs[i]
	p, err := base.Product(sp.Formula, sp.Source)
	if err != nil {
		t.Fatalf("%s %s: %v", r.Model, sp.Source, err)
	}
	st0 := startRow(t, p.S, r)
	t0 := time.Now()
	ch := mc.New(p.S)
	holds, tr, err := p.Check(ch)
	wall := time.Since(t0)
	if err != nil {
		t.Fatalf("%s %s: %v", r.Model, sp.Source, err)
	}
	measure(e, p.S, st0, wall)
	e.TableauVars = len(p.ElemVars)
	e.FairnessSets = len(p.S.Fair)
	if tr != nil {
		if err := p.ReplayCounterexample(tr); err != nil {
			t.Fatalf("%s %s: %v", r.Model, sp.Source, err)
		}
		e.LassoStem, e.LassoCycle = tr.CycleStart, len(tr.States)-tr.CycleStart
	}
	ch.Close()
	return holds
}

// recordSmvd drives the session cache through its four phases on the
// 8-client arbiter: the first query on a fresh server; the median of
// seven repeats on the hot session (cached reachable and fair sets,
// subformula memo); concurrent hot queries; and the first query after a
// restart seeded from the on-disk record, which must skip the
// reachability fixpoint.
func recordSmvd(t *testing.T, es []benchEntry) {
	const clients = 8
	src := modelgen.ArbiterSource(clients)
	specs, truth := modelgen.ArbiterSpecs(clients)
	passing := specs[:2] // the skipped-fixpoint proof needs specs without counterexamples
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	check := func(sv *smvd.Server, req *smvd.CheckRequest, want []bool) (*smvd.CheckResponse, time.Duration) {
		t.Helper()
		t0 := time.Now()
		resp, err := sv.Check(req)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range resp.Verdicts {
			if v.Error != "" {
				t.Fatalf("%q: %s", v.Spec, v.Error)
			}
			if v.Holds != want[i] {
				t.Fatalf("%q: holds=%v want %v — refusing to record a wrong run", v.Spec, v.Holds, want[i])
			}
		}
		return resp, wall
	}
	for i := range es {
		es[i].Completed = true
	}
	cold, warm, sustained, restart := &es[0], &es[1], &es[2], &es[3]

	dir := t.TempDir()
	cache, err := smvd.NewCache(8, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv := smvd.NewServer(cache)
	req := &smvd.CheckRequest{Model: src, Specs: specs}

	resp, coldWall := check(sv, req, truth)
	if resp.Warm {
		t.Fatal("cold query reported warm")
	}
	ss := sv.Cache.Sessions()
	if len(ss) != 1 {
		t.Fatalf("got %d sessions", len(ss))
	}
	cold.WallMS = ms(coldWall)
	cold.PeakLiveNodes = ss[0].Rel.PeakLiveNodes
	cold.CacheHitRate = ss[0].CacheHitRate
	cold.ReachableStates, cold.ReachIters = resp.ReachableStates, resp.ReachIters
	cold.ImageCalls = ss[0].Rel.ImageCalls

	var warmWalls []time.Duration
	for i := 0; i < 7; i++ {
		resp, wall := check(sv, req, truth)
		if !resp.Warm {
			t.Fatal("repeat query not warm")
		}
		warmWalls = append(warmWalls, wall)
	}
	sort.Slice(warmWalls, func(i, j int) bool { return warmWalls[i] < warmWalls[j] })
	warm.WallMS = ms(warmWalls[len(warmWalls)/2])
	warm.WarmSpeedup = float64(coldWall) / float64(warmWalls[len(warmWalls)/2])

	const hammerWorkers, perWorker = 4, 100
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < hammerWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := sv.Check(req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hammer := time.Since(t0)
	sustained.WallMS = ms(hammer)
	sustained.Queries = hammerWorkers * perWorker
	sustained.QPS = float64(sustained.Queries) / hammer.Seconds()

	if err := sv.Cache.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cache2, err := smvd.NewCache(8, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := smvd.NewServer(cache2)
	resp, restartWall := check(sv2, &smvd.CheckRequest{Model: src, Specs: passing}, truth[:2])
	if !resp.Warm || resp.WarmSource != "disk" {
		t.Fatalf("restart not disk-warm: warm=%v source=%q", resp.Warm, resp.WarmSource)
	}
	ss2 := sv2.Cache.Sessions()
	if len(ss2) != 1 {
		t.Fatalf("got %d sessions after restart", len(ss2))
	}
	restart.WallMS = ms(restartWall)
	restart.ReachableStates, restart.ReachIters = resp.ReachableStates, resp.ReachIters
	restart.ImageCalls = ss2[0].Rel.ImageCalls
	restart.WarmSpeedup = float64(coldWall) / float64(restartWall)
	restart.Note = "compile re-runs on restart; reach/fair/sift restored from disk"
}

// findEntry returns the entry of a row that is not a specs row, by its
// identity, or nil.
func findEntry(es []benchEntry, model, image, reorder, workload, phase string) *benchEntry {
	for i := range es {
		e := &es[i]
		if e.Model == model && e.Image == image && e.Reorder == reorder && e.Workload == workload && e.Phase == phase {
			return e
		}
	}
	return nil
}

// benchChecks holds recorded entries to the claims the artifact exists
// to show and returns each claim they break.
func benchChecks(entries []benchEntry) []string {
	var out []string
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	find := func(model, image, reorder, workload, phase string) *benchEntry {
		e := findEntry(entries, model, image, reorder, workload, phase)
		if e == nil {
			fail("%s %s %s %s %s: row missing", model, image, reorder, workload, phase)
		}
		return e
	}

	// At 8 cells the partition finishes the sweep under a lower peak than
	// the monolithic build reaches before it gives out.
	part8 := find("scaled-arbiter-k4", "conjunctive", "off", "bfs-10", "")
	mono8 := find("scaled-arbiter-k4", "monolithic", "off", "trans-build", "")
	if part8 != nil && mono8 != nil {
		if !part8.Completed || mono8.Completed {
			fail("8 cells: conjunctive completed=%v, monolithic build completed=%v", part8.Completed, mono8.Completed)
		}
		if part8.PeakLiveNodes >= mono8.PeakLiveNodes {
			fail("8 cells: conjunctive peak %d not below the monolithic build's %d", part8.PeakLiveNodes, mono8.PeakLiveNodes)
		}
	}
	// At 4 cells, where both finish, the partition is faster and smaller.
	part4 := find("scaled-arbiter-k2", "conjunctive", "off", "reach+ex3", "")
	mono4 := find("scaled-arbiter-k2", "monolithic", "off", "reach+ex3", "")
	if part4 != nil && mono4 != nil && (part4.WallMS >= mono4.WallMS || part4.PeakLiveNodes >= mono4.PeakLiveNodes) {
		fail("4 cells: conjunctive (%.1fms, %d nodes) not below monolithic (%.1fms, %d nodes)",
			part4.WallMS, part4.PeakLiveNodes, mono4.WallMS, mono4.PeakLiveNodes)
	}
	// At 8 cells sifting swaps and lowers the sweep's peak.
	sifted8 := find("scaled-arbiter-k4", "conjunctive", "default", "bfs-10", "")
	if sifted8 != nil && part8 != nil {
		if sifted8.SiftEvents == 0 || sifted8.SiftSwaps == 0 {
			fail("8 cells: reordering enabled but no sift work recorded (events=%d swaps=%d)", sifted8.SiftEvents, sifted8.SiftSwaps)
		}
		if sifted8.PeakLiveNodes >= part8.PeakLiveNodes {
			fail("8 cells: reordered peak %d not below the unreordered %d", sifted8.PeakLiveNodes, part8.PeakLiveNodes)
		}
	}
	// The scaled LTL products are big enough to trip eager sifting.
	sifted := false
	for _, e := range entries {
		if e.Kind == "ltl" && (e.Model == "hanoi-7" || e.Model == "chase-16") && e.SiftEvents > 0 {
			sifted = true
		}
	}
	if !sifted {
		fail("no scaled LTL product triggered auto-reordering")
	}
	// On the scaled ring the disjunctive image wins on peak or time over
	// the monolithic relation and reaches the same states.
	mono := find("scaled-ring-8", "monolithic", "off", "reach+ex3", "")
	disj := find("scaled-ring-8", "disjunctive", "off", "reach+ex3", "")
	if mono != nil && disj != nil {
		if disj.DisjunctSteps == 0 {
			fail("scaled-ring-8: no disjunct steps recorded")
		}
		if disj.PeakLiveNodes >= mono.PeakLiveNodes && disj.WallMS >= mono.WallMS {
			fail("scaled-ring-8: disjunctive (peak %d, %.1fms) beats monolithic (peak %d, %.1fms) on neither axis",
				disj.PeakLiveNodes, disj.WallMS, mono.PeakLiveNodes, mono.WallMS)
		}
		if disj.ReachableStates != mono.ReachableStates {
			fail("scaled-ring-8: reachable count differs: %v vs %v", disj.ReachableStates, mono.ReachableStates)
		}
	}
	// The hot session answers at least 5x faster than the cold compile,
	// and the restart skips the reachability fixpoint yet reaches as far.
	cold := find("arbiter-8", "conjunctive", "off", "smvd", "cold_compile")
	warm := find("arbiter-8", "conjunctive", "off", "smvd", "warm_query")
	restart := find("arbiter-8", "conjunctive", "off", "smvd", "warm_restart")
	if warm != nil && warm.WarmSpeedup < 5 {
		fail("smvd: warm query only %.1fx faster than cold — below the 5x floor", warm.WarmSpeedup)
	}
	if cold != nil && restart != nil {
		if restart.ImageCalls != 0 {
			fail("smvd: warm restart ran %d image calls — reachability was not skipped", restart.ImageCalls)
		}
		if restart.ReachableStates != cold.ReachableStates || restart.ReachIters != cold.ReachIters {
			fail("smvd: warm restart changed reachability: %v/%d vs %v/%d",
				restart.ReachableStates, restart.ReachIters, cold.ReachableStates, cold.ReachIters)
		}
	}
	return out
}

func committedEntries(t *testing.T) []benchEntry {
	t.Helper()
	raw, err := os.ReadFile("BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var es []benchEntry
	if err := json.Unmarshal(raw, &es); err != nil {
		t.Fatal(err)
	}
	return es
}

// TestBenchRowsMatchArtifact holds the committed BENCH_engine.json to
// the row table, enumerating specs by parsing alone: both must carry
// the same entry identities, and the recorded rows must keep the
// artifact's claims. benchgate only looks for baseline entries in the
// current run, so without this a row added to the table but never
// recorded would pass CI unseen.
func TestBenchRowsMatchArtifact(t *testing.T) {
	id := func(e benchEntry) string { return fmt.Sprintf("%+v spec=%q phase=%q", e.benchRow, e.Spec, e.Phase) }
	want := map[string]bool{}
	for _, r := range benchRows() {
		es, err := r.entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if want[id(e)] {
				t.Errorf("row table repeats %s", id(e))
			}
			want[id(e)] = true
		}
	}
	recorded := committedEntries(t)
	got := map[string]bool{}
	for _, e := range recorded {
		if got[id(e)] {
			t.Errorf("BENCH_engine.json repeats %s", id(e))
		}
		got[id(e)] = true
		if !want[id(e)] {
			t.Errorf("BENCH_engine.json has %s, which the row table does not", id(e))
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("row table has %s, which BENCH_engine.json does not: re-record it", k)
		}
	}
	for _, v := range benchChecks(recorded) {
		t.Errorf("BENCH_engine.json: %s", v)
	}
}

// TestBenchChecksCatchViolations breaks each claim of the committed
// artifact in turn: benchChecks must report every one, so the recorder
// refuses such a run.
func TestBenchChecksCatchViolations(t *testing.T) {
	recorded := committedEntries(t)
	at := func(es []benchEntry, model, image, reorder, workload, phase string) *benchEntry {
		e := findEntry(es, model, image, reorder, workload, phase)
		if e == nil {
			t.Fatalf("%s %s %s %s %s: no such row", model, image, reorder, workload, phase)
		}
		return e
	}
	k4 := func(es []benchEntry) *benchEntry {
		return at(es, "scaled-arbiter-k4", "conjunctive", "off", "bfs-10", "")
	}
	k4build := func(es []benchEntry) *benchEntry {
		return at(es, "scaled-arbiter-k4", "monolithic", "off", "trans-build", "")
	}
	k4sift := func(es []benchEntry) *benchEntry {
		return at(es, "scaled-arbiter-k4", "conjunctive", "default", "bfs-10", "")
	}
	k2 := func(es []benchEntry) *benchEntry {
		return at(es, "scaled-arbiter-k2", "conjunctive", "off", "reach+ex3", "")
	}
	ringDisj := func(es []benchEntry) *benchEntry {
		return at(es, "scaled-ring-8", "disjunctive", "off", "reach+ex3", "")
	}
	smvdPhase := func(es []benchEntry, phase string) *benchEntry {
		return at(es, "arbiter-8", "conjunctive", "off", "smvd", phase)
	}
	for name, breakIt := range map[string]func(es []benchEntry){
		"k4 monolithic build completes": func(es []benchEntry) { k4build(es).Completed = true },
		"k4 conjunctive sweep aborts":   func(es []benchEntry) { k4(es).Completed = false },
		"k4 conjunctive peak not lower": func(es []benchEntry) { k4(es).PeakLiveNodes = k4build(es).PeakLiveNodes },
		"k2 conjunctive not faster":     func(es []benchEntry) { k2(es).WallMS = 1e9 },
		"k2 conjunctive peak not lower": func(es []benchEntry) { k2(es).PeakLiveNodes = 1 << 30 },
		"k4 sifting never fires":        func(es []benchEntry) { k4sift(es).SiftEvents = 0 },
		"k4 sifting never swaps":        func(es []benchEntry) { k4sift(es).SiftSwaps = 0 },
		"k4 sifted peak not lower":      func(es []benchEntry) { k4sift(es).PeakLiveNodes = k4(es).PeakLiveNodes },
		"no scaled LTL product sifts": func(es []benchEntry) {
			for i := range es {
				if es[i].Kind == "ltl" {
					es[i].SiftEvents = 0
				}
			}
		},
		"no disjunct steps": func(es []benchEntry) { ringDisj(es).DisjunctSteps = 0 },
		"disjunctive wins on neither axis": func(es []benchEntry) {
			ringDisj(es).PeakLiveNodes, ringDisj(es).WallMS = 1<<30, 1e9
		},
		"disjunctive reaches other states": func(es []benchEntry) { ringDisj(es).ReachableStates++ },
		"warm query below 5x":              func(es []benchEntry) { smvdPhase(es, "warm_query").WarmSpeedup = 4.9 },
		"restart runs images":              func(es []benchEntry) { smvdPhase(es, "warm_restart").ImageCalls = 1 },
		"restart reaches other states":     func(es []benchEntry) { smvdPhase(es, "warm_restart").ReachableStates++ },
		"restart takes other iterations":   func(es []benchEntry) { smvdPhase(es, "warm_restart").ReachIters++ },
		"row missing":                      func(es []benchEntry) { k2(es).Model = "gone" },
	} {
		es := append([]benchEntry(nil), recorded...)
		breakIt(es)
		if len(benchChecks(es)) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}

// scaledRingSource generates an n-station token ring in the SMV input
// language — the scaled interleaved model of the disjunctive and
// reordering rows (models/ring.smv is the shipped 3-station instance).
func scaledRingSource(n int) string {
	var b strings.Builder
	b.WriteString(`MODULE station(token, me, succ)
VAR
  st : {idle, want, cs};
ASSIGN
  init(st) := idle;
  next(st) := case
    st = idle              : {idle, want};
    st = want & token = me : cs;
    st = cs                : idle;
    TRUE                   : st;
  esac;
  next(token) := case
    st = cs                : succ;
    st = idle & token = me : succ;
    TRUE                   : token;
  esac;
FAIRNESS running

MODULE main
VAR
  token : {`)
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "s%d", i)
	}
	b.WriteString("};\n")
	for i := 1; i <= n; i++ {
		succ := i%n + 1
		fmt.Fprintf(&b, "  st%d : process station(token, s%d, s%d);\n", i, i, succ)
	}
	b.WriteString("ASSIGN\n  init(token) := s1;\n")
	return b.String()
}
