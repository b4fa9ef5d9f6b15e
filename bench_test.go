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
		core.Compact(model, tr, bdd.True)
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
		m.Reorder(order, []bdd.Ref{f})
	}
}

// --- BENCH_partition.json: the partitioning before/after artifact -----
//
// TestRecordPartitionBench is gated behind BENCH_PARTITION=1 (it runs
// minutes of wall time) and writes BENCH_partition.json: for the Seitz
// arbiter and the scaled-arbiter family it records wall time, peak live
// BDD nodes, relational-product counters and AndExists cache behavior
// for the partitioned and the monolithic transition relation. At 6 and
// 8 cells the monolithic BDD cannot even be materialized within the
// node budget — those entries record the capped build attempt, which is
// the paper's point: the conjunction is the object partitioning avoids.

type partitionBenchEntry struct {
	Model            string  `json:"model"`
	Cells            int     `json:"cells"`
	Mode             string  `json:"mode"`
	Workload         string  `json:"workload"`
	Completed        bool    `json:"completed"`
	WallMS           float64 `json:"wall_ms"`
	PeakLiveNodes    int     `json:"peak_live_nodes"`
	ImageCalls       uint64  `json:"image_calls,omitempty"`
	PreimageCalls    uint64  `json:"preimage_calls,omitempty"`
	ClusterSteps     uint64  `json:"cluster_steps,omitempty"`
	AndExistsLookups uint64  `json:"and_exists_lookups,omitempty"`
	AndExistsHits    uint64  `json:"and_exists_hits,omitempty"`
	Clusters         int     `json:"clusters,omitempty"`
	SumClusterNodes  int     `json:"sum_cluster_nodes,omitempty"`
	TransNodes       int     `json:"trans_nodes,omitempty"`
	ReachableStates  float64 `json:"reachable_states,omitempty"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	BytesPerNode     float64 `json:"bytes_per_node"`
	Note             string  `json:"note,omitempty"`
}

// arenaMetrics returns the computed-cache hit rate since the last
// ResetRelStats and the arena footprint per live node, recorded in
// every artifact so benchgate can gate hit-rate regressions.
func arenaMetrics(s *kripke.Symbolic) (hitRate, bytesPerNode float64) {
	rs := s.RelStats()
	return rs.CacheHitRate(), float64(s.M.ArenaBytes()) / float64(s.M.NumNodes())
}

// benchModel compiles a fresh instance so cache and node-table state
// never leaks between measured modes.
type benchModel struct {
	name    string
	cells   int
	compile func() (*kripke.Symbolic, error)
}

func partitionBenchModels() []benchModel {
	models := []benchModel{{
		name:  "seitz.smv",
		cells: 2,
		compile: func() (*kripke.Symbolic, error) {
			src, err := os.ReadFile("models/seitz.smv")
			if err != nil {
				return nil, err
			}
			c, err := smv.CompileSource(string(src), smv.Config{})
			if err != nil {
				return nil, err
			}
			return c.S, nil
		},
	}}
	for _, k := range []int{2, 3, 4} {
		k := k
		models = append(models, benchModel{
			name:    fmt.Sprintf("scaled-arbiter-k%d", k),
			cells:   2 * k,
			compile: func() (*kripke.Symbolic, error) { return circuit.ScaledArbiter(k).Compile() },
		})
	}
	return models
}

// boundedSteps is the length of the bfs workload the partition and
// reorder recorders share.
const boundedSteps = 10

// boundedBFS runs up to boundedSteps frontier steps from s.Init and
// returns their wall time. The reached and frontier sets are protected
// and registered, so a sift fired inside Image keeps them and rewrites
// them in place; both are released, uncollected, on return.
func boundedBFS(s *kripke.Symbolic) time.Duration {
	m := s.M
	t0 := time.Now()
	reached := m.Protect(s.Init)
	frontier := m.Protect(s.Init)
	id := m.RegisterRefs(&reached, &frontier)
	for i := 0; i < boundedSteps && frontier != bdd.False; i++ {
		img := s.Image(frontier)
		m.Unprotect(frontier)
		frontier = m.Protect(m.Diff(img, reached))
		m.Unprotect(reached)
		reached = m.Protect(m.Or(reached, frontier))
		m.MaybeGC()
	}
	wall := time.Since(t0)
	m.Unregister(id)
	m.Unprotect(frontier)
	m.Unprotect(reached)
	return wall
}

func TestRecordPartitionBench(t *testing.T) {
	if os.Getenv("BENCH_PARTITION") != "1" {
		t.Skip("set BENCH_PARTITION=1 to record BENCH_partition.json")
	}
	const (
		gcThreshold  = 1 << 16   // tight threshold: peaks reflect live sets
		nodeBudget   = 6_000_000 // cap for the monolithic build attempt
		buildTimeout = 30 * time.Second
	)
	var entries []partitionBenchEntry

	baseEntry := func(bm benchModel, s *kripke.Symbolic, mode, workload string, wall time.Duration, ae0 bdd.Stats) partitionBenchEntry {
		rs := s.RelStats()
		p := s.Partition()
		e := partitionBenchEntry{
			Model:            bm.name,
			Cells:            bm.cells,
			Mode:             mode,
			Workload:         workload,
			Completed:        true,
			WallMS:           float64(wall.Microseconds()) / 1000,
			PeakLiveNodes:    rs.PeakLiveNodes,
			ImageCalls:       rs.ImageCalls,
			PreimageCalls:    rs.PreimageCalls,
			ClusterSteps:     rs.ClusterSteps,
			AndExistsLookups: s.M.Stats.AndExistsLookups - ae0.AndExistsLookups,
			AndExistsHits:    s.M.Stats.AndExistsHits - ae0.AndExistsHits,
		}
		e.CacheHitRate, e.BytesPerNode = arenaMetrics(s)
		if p != nil {
			e.Clusters = p.NumClusters()
			for _, c := range p.Clusters() {
				e.SumClusterNodes += s.M.Size(c)
			}
		}
		return e
	}

	// fullWorkload: the complete reachability fixpoint followed by a
	// short backward EX sweep, exercising both quantification schedules.
	fullWorkload := func(bm benchModel, s *kripke.Symbolic, mode string) partitionBenchEntry {
		s.M.GC()
		s.ResetRelStats()
		ae0 := s.M.Stats
		t0 := time.Now()
		reach, _ := s.Reachable()
		pre := reach
		for i := 0; i < 3; i++ {
			pre = s.Preimage(pre)
		}
		e := baseEntry(bm, s, mode, "reachable+ex3", time.Since(t0), ae0)
		e.ReachableStates = s.CountStates(reach)
		return e
	}

	// boundedWorkload: a fixed number of frontier steps for sizes where
	// the full reachable set is itself out of reach.
	boundedWorkload := func(bm benchModel, s *kripke.Symbolic, mode string) partitionBenchEntry {
		s.M.GC()
		s.ResetRelStats()
		ae0 := s.M.Stats
		wall := boundedBFS(s)
		return baseEntry(bm, s, mode, fmt.Sprintf("bfs-%d", boundedSteps), wall, ae0)
	}

	// cappedMonolithicBuild: try to materialize the monolithic relation
	// under a node and time budget, recording where it gives out.
	cappedMonolithicBuild := func(bm benchModel, s *kripke.Symbolic) partitionBenchEntry {
		m := s.M
		p := s.Partition()
		t0 := time.Now()
		acc := m.Protect(bdd.True)
		for i, c := range p.Clusters() {
			next := m.Protect(m.And(acc, c))
			m.Unprotect(acc)
			acc = next
			if m.NumNodes() > nodeBudget || time.Since(t0) > buildTimeout {
				e := partitionBenchEntry{
					Model:         bm.name,
					Cells:         bm.cells,
					Mode:          "monolithic",
					Workload:      "trans-materialization",
					Completed:     false,
					WallMS:        float64(time.Since(t0).Microseconds()) / 1000,
					PeakLiveNodes: m.NumNodes(),
					Clusters:      p.NumClusters(),
					Note: fmt.Sprintf(
						"monolithic Trans BDD aborted at cluster %d/%d: node budget %d exceeded; partial conjunction already %d nodes",
						i+1, p.NumClusters(), nodeBudget, m.Size(acc)),
				}
				e.CacheHitRate, e.BytesPerNode = arenaMetrics(s)
				m.Unprotect(acc)
				return e
			}
		}
		e := partitionBenchEntry{
			Model: bm.name, Cells: bm.cells, Mode: "monolithic",
			Workload: "trans-materialization", Completed: true,
			WallMS:        float64(time.Since(t0).Microseconds()) / 1000,
			PeakLiveNodes: m.NumNodes(),
			TransNodes:    m.Size(acc),
		}
		e.CacheHitRate, e.BytesPerNode = arenaMetrics(s)
		m.Unprotect(acc)
		return e
	}

	for _, bm := range partitionBenchModels() {
		// Partitioned run.
		s, err := bm.compile()
		if err != nil {
			t.Fatalf("%s: %v", bm.name, err)
		}
		s.M.SetGCThreshold(gcThreshold)
		bounded := bm.cells >= 6
		if bounded {
			entries = append(entries, boundedWorkload(bm, s, "partitioned"))
		} else {
			entries = append(entries, fullWorkload(bm, s, "partitioned"))
		}

		// Monolithic run, on a fresh instance.
		s, err = bm.compile()
		if err != nil {
			t.Fatalf("%s: %v", bm.name, err)
		}
		s.M.SetGCThreshold(gcThreshold)
		if bounded {
			// The full monolithic relation does not fit the node budget
			// at these sizes; record the capped build attempt.
			entries = append(entries, cappedMonolithicBuild(bm, s))
			continue
		}
		s.EnablePartition(false)
		buildStart := time.Now()
		transNodes := s.M.Size(s.Trans()) // materialization is part of the story
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
		e := fullWorkload(bm, s, "monolithic")
		e.TransNodes = transNodes
		e.Note = fmt.Sprintf("monolithic Trans materialized in %.1fms", buildMS)
		entries = append(entries, e)
	}

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_partition.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_partition.json with %d entries", len(entries))

	// The artifact must actually demonstrate the claim: at >= 8 cells the
	// partitioned run completes while the monolithic attempt exhausts its
	// node budget, and at sizes where both complete the partitioned run
	// is faster with a lower peak.
	byKey := map[string]partitionBenchEntry{}
	for _, e := range entries {
		byKey[e.Model+"/"+e.Mode] = e
	}
	part8 := byKey["scaled-arbiter-k4/partitioned"]
	mono8 := byKey["scaled-arbiter-k4/monolithic"]
	if !part8.Completed || mono8.Completed {
		t.Fatalf("8-cell separation not demonstrated: partitioned=%+v monolithic=%+v", part8, mono8)
	}
	if part8.PeakLiveNodes >= mono8.PeakLiveNodes {
		t.Fatalf("8 cells: partitioned peak %d not below monolithic peak %d",
			part8.PeakLiveNodes, mono8.PeakLiveNodes)
	}
	part4, mono4 := byKey["scaled-arbiter-k2/partitioned"], byKey["scaled-arbiter-k2/monolithic"]
	if part4.WallMS >= mono4.WallMS || part4.PeakLiveNodes >= mono4.PeakLiveNodes {
		t.Fatalf("4 cells: partitioned (%.1fms, %d nodes) not below monolithic (%.1fms, %d nodes)",
			part4.WallMS, part4.PeakLiveNodes, mono4.WallMS, mono4.PeakLiveNodes)
	}
}

// --- BENCH_reorder.json: the dynamic-reordering artifact --------------
//
// TestRecordReorderBench is gated behind BENCH_REORDER=1 and writes
// BENCH_reorder.json: the scaled-arbiter family at 4..8 cells and the
// 8-station token ring run the same bounded bfs-10 partitioned workload
// as the partition benchmark, once with reordering off and once with
// growth-triggered sifting on, recording wall time, peak and final live
// nodes, sift-event, swap, abort and timeout counts and total
// reordering time. The partitioned bfs-10 peak from
// BENCH_partition.json rides along in each off entry so the artifact is
// self-contained. The CI bench-smoke job replays it and gates peak live
// nodes (25%) and reordering wall time (2x, cmd/benchgate -time-metric)
// against this baseline.

type reorderBenchEntry struct {
	Model          string  `json:"model"`
	Cells          int     `json:"cells"`
	Reorder        bool    `json:"reorder"`
	Workload       string  `json:"workload"`
	WallMS         float64 `json:"wall_ms"`
	PeakLiveNodes  int     `json:"peak_live_nodes"`
	FinalLiveNodes int     `json:"final_live_nodes"`
	SiftEvents     uint64  `json:"sift_events"`
	SiftPasses     uint64  `json:"sift_passes,omitempty"`
	SiftTrials     uint64  `json:"sift_trials,omitempty"`
	SiftSwaps      uint64  `json:"sift_swaps,omitempty"`
	SiftAborts     uint64  `json:"sift_aborts,omitempty"`
	SiftTimeouts   uint64  `json:"sift_timeouts,omitempty"`
	ReorderMS      float64 `json:"reorder_ms,omitempty"`
	NodesSaved     int64   `json:"nodes_saved,omitempty"`
	BaselinePeak   int     `json:"pr1_baseline_peak,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	BytesPerNode   float64 `json:"bytes_per_node"`
	Note           string  `json:"note,omitempty"`
}

func TestRecordReorderBench(t *testing.T) {
	if os.Getenv("BENCH_REORDER") != "1" {
		t.Skip("set BENCH_REORDER=1 to record BENCH_reorder.json")
	}
	const gcThreshold = 1 << 16 // same as the partition benchmark

	// PR-1 partitioned bfs-10 peaks from BENCH_partition.json, keyed by
	// model name, for side-by-side comparison in the artifact.
	baseline := map[string]int{}
	if raw, err := os.ReadFile("BENCH_partition.json"); err == nil {
		var prev []partitionBenchEntry
		if err := json.Unmarshal(raw, &prev); err == nil {
			for _, e := range prev {
				if e.Mode == "partitioned" && strings.HasPrefix(e.Workload, "bfs-") {
					baseline[e.Model] = e.PeakLiveNodes
				}
			}
		}
	}

	run := func(bm benchModel, reorder bool) reorderBenchEntry {
		s, err := bm.compile()
		if err != nil {
			t.Fatalf("%s: %v", bm.name, err)
		}
		m := s.M
		m.SetGCThreshold(gcThreshold)
		if reorder {
			m.EnableAutoReorder(nil)
		}
		m.GC()
		s.ResetRelStats()
		wall := boundedBFS(s)
		rs := s.RelStats()
		e := reorderBenchEntry{
			Model:          bm.name,
			Cells:          bm.cells,
			Reorder:        reorder,
			Workload:       fmt.Sprintf("bfs-%d", boundedSteps),
			WallMS:         float64(wall.Microseconds()) / 1000,
			PeakLiveNodes:  rs.PeakLiveNodes,
			FinalLiveNodes: m.NumNodes(),
			SiftEvents:     m.Stats.AutoReorders,
			SiftPasses:     m.Stats.SiftPasses,
			SiftTrials:     m.Stats.SiftTrials,
			SiftSwaps:      m.Stats.SiftSwaps,
			SiftAborts:     m.Stats.SiftAborts,
			SiftTimeouts:   m.Stats.SiftTimeouts,
			ReorderMS:      float64(m.Stats.ReorderTime.Microseconds()) / 1000,
			NodesSaved:     m.Stats.ReorderSavedNodes,
		}
		e.CacheHitRate, e.BytesPerNode = arenaMetrics(s)
		if !reorder {
			e.BaselinePeak = baseline[bm.name]
		}
		return e
	}

	var models []benchModel
	for _, k := range []int{2, 3, 4} {
		models = append(models, benchModel{
			name:    fmt.Sprintf("scaled-arbiter-k%d", k),
			cells:   2 * k,
			compile: func() (*kripke.Symbolic, error) { return circuit.ScaledArbiter(k).Compile() },
		})
	}
	ringSrc := scaledRingSource(8)
	models = append(models, benchModel{
		name:  "scaled-ring-8",
		cells: 8,
		compile: func() (*kripke.Symbolic, error) {
			c, err := smv.CompileSource(ringSrc, smv.Config{})
			if err != nil {
				return nil, err
			}
			return c.S, nil
		},
	})

	var entries []reorderBenchEntry
	for _, bm := range models {
		off := run(bm, false)
		on := run(bm, true)
		entries = append(entries, off, on)
		t.Logf("%s: peak %d -> %d (%d sift events, %d swaps, %.1fms reordering)",
			bm.name, off.PeakLiveNodes, on.PeakLiveNodes, on.SiftEvents, on.SiftSwaps, on.ReorderMS)
	}

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_reorder.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	// Acceptance: at 8 cells the reordered run must sift by swapping and
	// finish the bounded sweep with a lower peak than the partitioned
	// baseline (the BENCH_partition.json peak when that file is present).
	const partitionedPeak = 1_403_708
	want := partitionedPeak
	if b, ok := baseline["scaled-arbiter-k4"]; ok {
		want = b
	}
	for _, e := range entries {
		if e.Model == "scaled-arbiter-k4" && e.Reorder {
			if e.SiftEvents == 0 || e.SiftSwaps == 0 {
				t.Errorf("8 cells: reordering enabled but no sift work recorded (events=%d swaps=%d)",
					e.SiftEvents, e.SiftSwaps)
			}
			if e.PeakLiveNodes >= want {
				t.Errorf("8 cells: reordered peak %d not below the partitioned baseline %d",
					e.PeakLiveNodes, want)
			}
		}
	}
}

// --- BENCH_ltl.json: the LTL tableau-product artifact -----------------
//
// TestRecordLTLBench is gated behind BENCH_LTL=1 and writes
// BENCH_ltl.json: every LTLSPEC of the ABP and Peterson scenario models
// is checked through the tableau product, recording wall time, peak
// live BDD nodes, tableau size (promise variables, generalized-Büchi
// sets, clusters) and counterexample lasso lengths. Verdicts are
// asserted against the scenarioVerdicts tables so a broken product
// cannot silently record a fast-but-wrong run. Kept fast on purpose:
// the CI bench-smoke job replays it on every push and gates peak live
// nodes against this baseline (cmd/benchgate).

type ltlBenchEntry struct {
	Model         string  `json:"model"`
	Spec          string  `json:"spec"`
	Holds         bool    `json:"holds"`
	WallMS        float64 `json:"wall_ms"`
	PeakLiveNodes int     `json:"peak_live_nodes"`
	TableauVars   int     `json:"tableau_vars"`
	FairnessSets  int     `json:"fairness_sets"`
	Clusters      int     `json:"clusters"`
	LassoStem     int     `json:"lasso_stem,omitempty"`
	LassoCycle    int     `json:"lasso_cycle,omitempty"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	BytesPerNode  float64 `json:"bytes_per_node"`
}

func TestRecordLTLBench(t *testing.T) {
	if os.Getenv("BENCH_LTL") != "1" {
		t.Skip("set BENCH_LTL=1 to record BENCH_ltl.json")
	}
	const gcThreshold = 1 << 16 // same schedule as the other artifacts

	var entries []ltlBenchEntry
	for _, name := range []string{"abp.smv", "peterson.smv"} {
		src, err := os.ReadFile("models/" + name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := smv.CompileSource(string(src), smv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := scenarioVerdicts[name]
		if len(base.Module.LTLSpecs) != len(want.ltl) {
			t.Fatalf("%s: %d LTLSPECs but %d expected verdicts", name, len(base.Module.LTLSpecs), len(want.ltl))
		}
		for i, sp := range base.Module.LTLSpecs {
			p, err := base.Product(sp.Formula, sp.Source)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sp.Source, err)
			}
			p.S.M.SetGCThreshold(gcThreshold)
			p.S.M.GC()
			p.S.ResetRelStats()
			t0 := time.Now()
			ch := mc.New(p.S)
			holds, tr, err := p.Check(ch)
			wall := time.Since(t0)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sp.Source, err)
			}
			if holds != want.ltl[i] {
				t.Fatalf("%s %s: got %v, want %v — refusing to record a wrong run",
					name, sp.Source, holds, want.ltl[i])
			}
			e := ltlBenchEntry{
				Model:         name,
				Spec:          sp.Formula.String(),
				Holds:         holds,
				WallMS:        float64(wall.Microseconds()) / 1000,
				PeakLiveNodes: p.S.RelStats().PeakLiveNodes,
				TableauVars:   len(p.ElemVars),
				FairnessSets:  len(p.S.Fair),
				Clusters:      p.S.NumClusters(),
			}
			e.CacheHitRate, e.BytesPerNode = arenaMetrics(p.S)
			if tr != nil {
				if err := p.ReplayCounterexample(tr); err != nil {
					t.Fatalf("%s %s: %v", name, sp.Source, err)
				}
				e.LassoStem = tr.CycleStart
				e.LassoCycle = len(tr.States) - tr.CycleStart
			}
			ch.Close()
			entries = append(entries, e)
		}
	}

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ltl.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_ltl.json with %d entries", len(entries))
}

// --- BENCH_models.json: the scenario-corpus artifact ------------------
//
// TestRecordModelsBench is gated behind BENCH_MODELS=1 and writes
// BENCH_models.json: every SPEC and LTLSPEC of the hanoi and chase
// scenario models — the shipped sizes plus scaled instances rendered by
// the modelgen generators — is checked with growth-triggered sifting
// enabled, recording wall time, peak live nodes, sift events and lasso
// shapes. Verdicts are asserted against scenarioVerdicts (the tables
// are size-independent by construction), so a wrong run is never
// recorded. The scaled LTL products are sized to actually trip the
// auto-reorder trigger; the assertion at the bottom keeps that true.
// Each failing CTL row also records the BDD lookups (see lookups) its
// Check and its CounterexampleInit took: witness_lookups over
// check_lookups is the deterministic twin of perfbench's
// core.witness_over_check.
// The CI bench-smoke job replays this and gates peak live nodes (25%),
// wall time (2x) and witness_lookups (25%) against the committed
// baseline (cmd/benchgate).

type modelsBenchEntry struct {
	Model         string  `json:"model"`
	Spec          string  `json:"spec"`
	Kind          string  `json:"kind"` // "ctl" | "ltl"
	Holds         bool    `json:"holds"`
	WallMS        float64 `json:"wall_ms"`
	PeakLiveNodes int     `json:"peak_live_nodes"`
	SiftEvents    uint64  `json:"sift_events,omitempty"`
	TableauVars   int     `json:"tableau_vars,omitempty"`
	LassoStem     int     `json:"lasso_stem,omitempty"`
	LassoCycle    int     `json:"lasso_cycle,omitempty"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	BytesPerNode  float64 `json:"bytes_per_node"`

	CheckLookups   uint64 `json:"check_lookups,omitempty"`
	WitnessLookups uint64 `json:"witness_lookups,omitempty"`
}

func TestRecordModelsBench(t *testing.T) {
	if os.Getenv("BENCH_MODELS") != "1" {
		t.Skip("set BENCH_MODELS=1 to record BENCH_models.json")
	}
	const gcThreshold = 1 << 16 // same schedule as the other artifacts
	// Same trigger profile the modelgen lattice uses: MinNodes low
	// enough that scenario-sized products actually sift.
	reorderOpts := bdd.ReorderOptions{
		GrowthTrigger: 1.5,
		MinNodes:      256,
		MaxPasses:     1,
		Window:        4,
		MaxBlocks:     16,
	}

	type scenario struct {
		name     string
		src      string
		verdicts struct{ ctl, ltl []bool }
	}
	mustRead := func(name string) string {
		src, err := os.ReadFile("models/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	scenarios := []scenario{
		{name: "hanoi.smv", src: mustRead("hanoi.smv"), verdicts: scenarioVerdicts["hanoi.smv"]},
		{name: "chase.smv", src: mustRead("chase.smv"), verdicts: scenarioVerdicts["chase.smv"]},
		// Scaled instances: verdicts are size-independent (the puzzle
		// stays solvable, the evader still escapes).
		{name: "hanoi-7", src: modelgen.HanoiSource(7), verdicts: scenarioVerdicts["hanoi.smv"]},
		{name: "chase-16", src: modelgen.ChaseSource(16), verdicts: scenarioVerdicts["chase.smv"]},
	}

	var entries []modelsBenchEntry
	for _, sc := range scenarios {
		base, err := smv.CompileSource(sc.src, smv.Config{})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		module := base.Module
		if len(module.Specs) != len(sc.verdicts.ctl) || len(module.LTLSpecs) != len(sc.verdicts.ltl) {
			t.Fatalf("%s: spec counts do not match the verdict table", sc.name)
		}
		for i, sp := range module.Specs {
			c, err := smv.CompileSource(sc.src, smv.Config{})
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			c.S.M.SetGCThreshold(gcThreshold)
			c.S.M.EnableAutoReorder(&reorderOpts)
			c.S.ResetRelStats()
			t0 := time.Now()
			checker := mc.New(c.S)
			gen := core.NewGenerator(checker)
			f := c.Module.Specs[i].Formula
			before := lookups(c.S.M)
			if _, err := checker.Check(f); err != nil {
				t.Fatalf("%s %s: %v", sc.name, sp.Source, err)
			}
			checked := lookups(c.S.M)
			holds, tr, err := gen.CounterexampleInit(f)
			wall := time.Since(t0)
			witnessed := lookups(c.S.M)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.name, sp.Source, err)
			}
			if holds != sc.verdicts.ctl[i] {
				t.Fatalf("%s %s: got %v, want %v — refusing to record a wrong run",
					sc.name, sp.Source, holds, sc.verdicts.ctl[i])
			}
			e := modelsBenchEntry{
				Model:         sc.name,
				Spec:          sp.Formula.String(),
				Kind:          "ctl",
				Holds:         holds,
				WallMS:        float64(wall.Microseconds()) / 1000,
				PeakLiveNodes: c.S.RelStats().PeakLiveNodes,
				SiftEvents:    c.S.M.Stats.AutoReorders,
			}
			e.CacheHitRate, e.BytesPerNode = arenaMetrics(c.S)
			if tr != nil {
				if err := core.ValidatePath(c.S, tr); err != nil {
					t.Fatalf("%s %s: invalid trace: %v", sc.name, sp.Source, err)
				}
				e.LassoStem = tr.CycleStart
				e.LassoCycle = len(tr.States) - tr.CycleStart
				if !tr.IsLasso() {
					e.LassoStem, e.LassoCycle = len(tr.States), 0
				}
				e.CheckLookups = checked - before
				e.WitnessLookups = witnessed - checked
			}
			entries = append(entries, e)
		}
		for i, sp := range module.LTLSpecs {
			p, err := base.Product(sp.Formula, sp.Source)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.name, sp.Source, err)
			}
			p.S.M.SetGCThreshold(gcThreshold)
			p.S.M.EnableAutoReorder(&reorderOpts)
			p.S.ResetRelStats()
			t0 := time.Now()
			ch := mc.New(p.S)
			holds, tr, err := p.Check(ch)
			wall := time.Since(t0)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.name, sp.Source, err)
			}
			if holds != sc.verdicts.ltl[i] {
				t.Fatalf("%s %s: got %v, want %v — refusing to record a wrong run",
					sc.name, sp.Source, holds, sc.verdicts.ltl[i])
			}
			e := modelsBenchEntry{
				Model:         sc.name,
				Spec:          sp.Formula.String(),
				Kind:          "ltl",
				Holds:         holds,
				WallMS:        float64(wall.Microseconds()) / 1000,
				PeakLiveNodes: p.S.RelStats().PeakLiveNodes,
				SiftEvents:    p.S.M.Stats.AutoReorders,
				TableauVars:   len(p.ElemVars),
			}
			e.CacheHitRate, e.BytesPerNode = arenaMetrics(p.S)
			if tr != nil {
				if err := p.ReplayCounterexample(tr); err != nil {
					t.Fatalf("%s %s: %v", sc.name, sp.Source, err)
				}
				e.LassoStem = tr.CycleStart
				e.LassoCycle = len(tr.States) - tr.CycleStart
			}
			ch.Close()
			entries = append(entries, e)
		}
	}

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_models.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_models.json with %d entries", len(entries))

	// Acceptance: the scaled LTL products must be big enough to trip
	// growth-triggered sifting — otherwise the corpus is not exercising
	// the reordering path it exists to cover.
	var sifted bool
	for _, e := range entries {
		if e.Kind == "ltl" && (e.Model == "hanoi-7" || e.Model == "chase-16") && e.SiftEvents > 0 {
			sifted = true
		}
	}
	if !sifted {
		t.Error("no scaled LTL product triggered auto-reordering")
	}
}

// --- BENCH_disjunctive.json: the disjunctive-partitioning artifact ----
//
// TestRecordDisjunctiveBench is gated behind BENCH_DISJUNCTIVE=1 and
// writes BENCH_disjunctive.json: for the shipped process models and a
// scaled token ring it runs the same reachability workload under the
// conjunctive schedule and the disjunctive image, recording wall time,
// peak live nodes and the per-mode step counters.
// dining.smv and mutex.smv are synchronous — they carry no disjuncts
// and ride along as conjunctive/monolithic continuity entries so the
// artifact covers both composition styles. Kept fast on purpose: the CI
// bench-smoke job replays it on every push and gates peak-live-node
// regressions against the committed baseline (cmd/benchgate).

type disjunctiveBenchEntry struct {
	Model           string  `json:"model"`
	Mode            string  `json:"mode"`
	Workload        string  `json:"workload"`
	WallMS          float64 `json:"wall_ms"`
	PeakLiveNodes   int     `json:"peak_live_nodes"`
	ImageCalls      uint64  `json:"image_calls,omitempty"`
	PreimageCalls   uint64  `json:"preimage_calls,omitempty"`
	ClusterSteps    uint64  `json:"cluster_steps,omitempty"`
	DisjunctSteps   uint64  `json:"disjunct_steps,omitempty"`
	Clusters        int     `json:"clusters,omitempty"`
	Components      int     `json:"components,omitempty"`
	ReachableStates float64 `json:"reachable_states,omitempty"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	BytesPerNode    float64 `json:"bytes_per_node"`
	Note            string  `json:"note,omitempty"`
}

// scaledRingSource generates an n-station token ring in the SMV input
// language — the scaled interleaved model of the disjunctive benchmark
// (models/ring.smv is the shipped 3-station instance).
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

func TestRecordDisjunctiveBench(t *testing.T) {
	if os.Getenv("BENCH_DISJUNCTIVE") != "1" {
		t.Skip("set BENCH_DISJUNCTIVE=1 to record BENCH_disjunctive.json")
	}
	const gcThreshold = 1 << 16 // tight threshold: peaks reflect live sets

	fromFile := func(name string) func() (*kripke.Symbolic, error) {
		return func() (*kripke.Symbolic, error) {
			src, err := os.ReadFile("models/" + name)
			if err != nil {
				return nil, err
			}
			c, err := smv.CompileSource(string(src), smv.Config{})
			if err != nil {
				return nil, err
			}
			return c.S, nil
		}
	}
	fromSource := func(src string) func() (*kripke.Symbolic, error) {
		return func() (*kripke.Symbolic, error) {
			c, err := smv.CompileSource(src, smv.Config{})
			if err != nil {
				return nil, err
			}
			return c.S, nil
		}
	}

	// run measures the reachability fixpoint plus a short backward sweep
	// on a fresh instance per mode, so caches never leak across modes.
	run := func(name string, compile func() (*kripke.Symbolic, error), mode string) disjunctiveBenchEntry {
		s, err := compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := s.M
		m.SetGCThreshold(gcThreshold)
		switch mode {
		case "disjunctive":
			if s.NumDisjuncts() == 0 {
				t.Fatalf("%s: no disjuncts for disjunctive mode", name)
			}
			s.EnableDisjunct(true)
		case "conjunctive":
			if !s.HasClusters() {
				t.Fatalf("%s: no clusters for conjunctive mode", name)
			}
		case "monolithic":
			s.EnablePartition(false)
		}
		m.GC()
		s.ResetRelStats()
		t0 := time.Now()
		reach, _ := s.Reachable()
		pre := reach
		for i := 0; i < 3; i++ {
			pre = s.Preimage(pre)
		}
		wall := time.Since(t0)
		rs := s.RelStats()
		hitRate, bpn := arenaMetrics(s)
		return disjunctiveBenchEntry{
			CacheHitRate:    hitRate,
			BytesPerNode:    bpn,
			Model:           name,
			Mode:            mode,
			Workload:        "reachable+ex3",
			WallMS:          float64(wall.Microseconds()) / 1000,
			PeakLiveNodes:   rs.PeakLiveNodes,
			ImageCalls:      rs.ImageCalls,
			PreimageCalls:   rs.PreimageCalls,
			ClusterSteps:    rs.ClusterSteps,
			DisjunctSteps:   rs.DisjunctSteps,
			Clusters:        s.NumClusters(),
			Components:      s.NumDisjuncts(),
			ReachableStates: s.CountStates(reach),
		}
	}

	var entries []disjunctiveBenchEntry
	// Synchronous continuity entries: no disjuncts to run.
	for _, name := range []string{"dining.smv", "mutex.smv"} {
		for _, mode := range []string{"conjunctive", "monolithic"} {
			e := run(name, fromFile(name), mode)
			e.Note = "synchronous model: no process components"
			entries = append(entries, e)
		}
	}
	// Interleaved models: conjunctive vs disjunctive.
	type interleaved struct {
		name    string
		compile func() (*kripke.Symbolic, error)
	}
	ringN := 8
	models := []interleaved{
		{"ring.smv", fromFile("ring.smv")},
		{fmt.Sprintf("scaled-ring-%d", ringN), fromSource(scaledRingSource(ringN))},
	}
	for _, im := range models {
		entries = append(entries,
			run(im.name, im.compile, "conjunctive"),
			run(im.name, im.compile, "disjunctive"),
		)
	}

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_disjunctive.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_disjunctive.json with %d entries", len(entries))

	// Acceptance: on the scaled interleaved model the disjunctive image
	// must beat the conjunctive schedule on peak live nodes or wall time.
	key := func(model, mode string) *disjunctiveBenchEntry {
		for i := range entries {
			e := &entries[i]
			if e.Model == model && e.Mode == mode {
				return e
			}
		}
		return nil
	}
	scaled := fmt.Sprintf("scaled-ring-%d", ringN)
	conj, disj := key(scaled, "conjunctive"), key(scaled, "disjunctive")
	if conj == nil || disj == nil {
		t.Fatal("scaled-ring entries missing")
	}
	if disj.DisjunctSteps == 0 {
		t.Fatal("no disjunct steps recorded")
	}
	if disj.PeakLiveNodes >= conj.PeakLiveNodes && disj.WallMS >= conj.WallMS {
		t.Errorf("disjunctive (peak %d, %.1fms) beats conjunctive (peak %d, %.1fms) on neither axis",
			disj.PeakLiveNodes, disj.WallMS, conj.PeakLiveNodes, conj.WallMS)
	}
	if disj.ReachableStates != conj.ReachableStates {
		t.Errorf("reachable count differs: %v vs %v", disj.ReachableStates, conj.ReachableStates)
	}
}

// --- BENCH_smvd.json: the persistent-server cache artifact ------------
//
// TestRecordSmvdBench is gated behind BENCH_SMVD=1 and writes
// BENCH_smvd.json, the artifact for the smvd session cache:
//
//	cold_compile  first query on a fresh server: parse + compile +
//	              reachability + fair set + all specs
//	warm_query    median repeat query on the same session (cached
//	              reachable/fair sets + subformula memo); its
//	              warm_speedup over cold is the headline number and
//	              must be at least 5x — the recorder refuses to write
//	              a run below that
//	warm_restart  first query after a simulated restart, seeded from
//	              the on-disk serialize-v3 record; image_calls is
//	              asserted zero (the reachability frontier is the only
//	              Image user in CTL checking, so zero proves the
//	              fixpoint was skipped)
//	sustained     concurrent hot-query throughput
//
// The CI bench-smoke job gates peak_live_nodes (deterministic for a
// fixed model) at 25% and warm_speedup — a same-machine ratio, so
// runner speed cancels out — with a wide 90% band against the
// committed baseline.

type smvdBenchEntry struct {
	Model           string  `json:"model"`
	Phase           string  `json:"phase"`
	WallMS          float64 `json:"wall_ms"`
	PeakLiveNodes   int     `json:"peak_live_nodes,omitempty"`
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"`
	ReachableStates float64 `json:"reachable_states,omitempty"`
	ReachIters      int     `json:"reach_iters,omitempty"`
	WarmSpeedup     float64 `json:"warm_speedup,omitempty"`
	ImageCalls      uint64  `json:"image_calls"`
	QPS             float64 `json:"qps,omitempty"`
	Queries         uint64  `json:"queries,omitempty"`
	Note            string  `json:"note,omitempty"`
}

func TestRecordSmvdBench(t *testing.T) {
	if os.Getenv("BENCH_SMVD") != "1" {
		t.Skip("set BENCH_SMVD=1 to record BENCH_smvd.json")
	}
	const clients = 8
	src := modelgen.ArbiterSource(clients)
	specs, truth := modelgen.ArbiterSpecs(clients)
	passing := specs[:2] // the ImageCalls==0 proof needs specs without counterexamples

	verify := func(resp *smvd.CheckResponse, want []bool) {
		t.Helper()
		for i, v := range resp.Verdicts {
			if v.Error != "" {
				t.Fatalf("%q: %s", v.Spec, v.Error)
			}
			if v.Holds != want[i] {
				t.Fatalf("%q: holds=%v want %v — refusing to record a wrong run",
					v.Spec, v.Holds, want[i])
			}
		}
	}

	dir := t.TempDir()
	cache, err := smvd.NewCache(8, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv := smvd.NewServer(cache)
	req := &smvd.CheckRequest{Model: src, Specs: specs}

	// Phase 1: cold.
	t0 := time.Now()
	cold, err := sv.Check(req)
	coldWall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("cold query reported warm")
	}
	verify(cold, truth)
	ss := sv.Cache.Sessions()
	if len(ss) != 1 {
		t.Fatalf("got %d sessions", len(ss))
	}
	entries := []smvdBenchEntry{{
		Model:           fmt.Sprintf("arbiter-%d", clients),
		Phase:           "cold_compile",
		WallMS:          float64(coldWall.Microseconds()) / 1000,
		PeakLiveNodes:   ss[0].Rel.PeakLiveNodes,
		CacheHitRate:    ss[0].CacheHitRate,
		ReachableStates: cold.ReachableStates,
		ReachIters:      cold.ReachIters,
		ImageCalls:      ss[0].Rel.ImageCalls,
	}}

	// Phase 2: warm queries on the hot session; median of several runs.
	var warmWalls []time.Duration
	for i := 0; i < 7; i++ {
		t0 = time.Now()
		warm, err := sv.Check(req)
		warmWalls = append(warmWalls, time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Warm {
			t.Fatal("repeat query not warm")
		}
		verify(warm, truth)
	}
	sort.Slice(warmWalls, func(i, j int) bool { return warmWalls[i] < warmWalls[j] })
	warmWall := warmWalls[len(warmWalls)/2]
	speedup := float64(coldWall) / float64(warmWall)
	if speedup < 5 {
		t.Fatalf("warm query only %.1fx faster than cold (%v vs %v) — below the 5x floor",
			speedup, warmWall, coldWall)
	}
	entries = append(entries, smvdBenchEntry{
		Model:       fmt.Sprintf("arbiter-%d", clients),
		Phase:       "warm_query",
		WallMS:      float64(warmWall.Microseconds()) / 1000,
		WarmSpeedup: speedup,
	})

	// Phase 3: sustained concurrent hot-query throughput.
	const hammerWorkers, perWorker = 4, 100
	var wg sync.WaitGroup
	t0 = time.Now()
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
	entries = append(entries, smvdBenchEntry{
		Model:   fmt.Sprintf("arbiter-%d", clients),
		Phase:   "sustained",
		WallMS:  float64(hammer.Microseconds()) / 1000,
		QPS:     hammerWorkers * perWorker / hammer.Seconds(),
		Queries: hammerWorkers * perWorker,
	})

	// Phase 4: warm restart from the serialize-v3 record.
	if err := sv.Cache.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cache2, err := smvd.NewCache(8, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	sv2 := smvd.NewServer(cache2)
	t0 = time.Now()
	restart, err := sv2.Check(&smvd.CheckRequest{Model: src, Specs: passing})
	restartWall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if !restart.Warm || restart.WarmSource != "disk" {
		t.Fatalf("restart not disk-warm: warm=%v source=%q", restart.Warm, restart.WarmSource)
	}
	verify(restart, truth[:2])
	if restart.ReachableStates != cold.ReachableStates || restart.ReachIters != cold.ReachIters {
		t.Fatalf("warm restart changed reachability: %v/%d vs %v/%d",
			restart.ReachableStates, restart.ReachIters, cold.ReachableStates, cold.ReachIters)
	}
	ss2 := sv2.Cache.Sessions()
	if len(ss2) != 1 {
		t.Fatalf("got %d sessions after restart", len(ss2))
	}
	if ss2[0].Rel.ImageCalls != 0 {
		t.Fatalf("warm restart ran %d image calls — reachability was not skipped", ss2[0].Rel.ImageCalls)
	}
	entries = append(entries, smvdBenchEntry{
		Model:           fmt.Sprintf("arbiter-%d", clients),
		Phase:           "warm_restart",
		WallMS:          float64(restartWall.Microseconds()) / 1000,
		ReachableStates: restart.ReachableStates,
		ReachIters:      restart.ReachIters,
		ImageCalls:      ss2[0].Rel.ImageCalls,
		WarmSpeedup:     float64(coldWall) / float64(restartWall),
		Note:            "compile re-runs on restart; reach/fair/sift restored from disk",
	})

	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_smvd.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_smvd.json with %d entries (cold %.2fms, warm %.3fms, %.0fx, restart %.2fms)",
		len(entries), float64(coldWall.Microseconds())/1000,
		float64(warmWall.Microseconds())/1000, speedup,
		float64(restartWall.Microseconds())/1000)
}
