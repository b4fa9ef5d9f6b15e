package experiments

import (
	"fmt"
	"math/rand"
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
)

// E4MinimalVsHeuristic quantifies Theorem 1: exact minimal witnesses are
// exponential to find while the heuristic is polynomial, and measures
// how far from minimal the heuristic's witnesses are.
func E4MinimalVsHeuristic(seed int64, trials int) *Report {
	r := &Report{ID: "E4", Title: "Minimal vs. heuristic witness length (Theorem 1)"}
	rng := rand.New(rand.NewSource(seed))

	var sumMin, sumHeur, counted int
	var minTime, heurTime time.Duration
	worst := 0.0
	for trial := 0; trial < trials; trial++ {
		e := kripke.RandomExplicit(rng, 5+rng.Intn(3), 2, nil, 1+rng.Intn(2), 0.3)
		s := kripke.FromExplicit(e)
		gen := core.NewGenerator(mc.New(s))
		start := kripke.IndexState(e.Init[0], len(s.Vars))
		if !s.Holds(gen.C.Fair(), start) {
			continue
		}
		t0 := time.Now()
		tr, err := gen.WitnessEG(bdd.True, start)
		heurTime += time.Since(t0)
		if err != nil {
			r.Err = err
			return r
		}
		t0 = time.Now()
		w, ok := graph.MinimalFiniteWitness(e, e.Init[0], e.N*(len(e.Fair)+1))
		minTime += time.Since(t0)
		if !ok {
			r.Err = fmt.Errorf("brute force found no witness where heuristic did")
			return r
		}
		sumMin += w.Length()
		sumHeur += tr.Len()
		counted++
		if ratio := float64(tr.Len()) / float64(w.Length()); ratio > worst {
			worst = ratio
		}
	}
	if counted == 0 {
		r.Err = fmt.Errorf("no fair instances generated")
		return r
	}
	r.add("problem complexity", "minimal witness NP-complete (Thm 1)",
		fmt.Sprintf("brute force %.1fms vs heuristic %.1fms over %d instances",
			float64(minTime.Milliseconds()), float64(heurTime.Milliseconds()), counted))
	r.add("witness quality", "heuristic \"tends to find short counterexamples\"",
		fmt.Sprintf("avg minimal %.2f vs avg heuristic %.2f states (worst ratio %.2fx)",
			float64(sumMin)/float64(counted), float64(sumHeur)/float64(counted), worst))

	// The Hamiltonian reduction itself, on a cycle graph and a star.
	ringOK := graph.HamiltonianViaWitness([][]int{{1}, {2}, {3}, {0}})
	starOK := graph.HamiltonianViaWitness([][]int{{1, 2}, {0}, {0}})
	r.add("Hamiltonian reduction", "HC ⟺ witness of length n",
		fmt.Sprintf("4-ring: %v (want true), star: %v (want false)", ringOK, starOK))
	return r
}

// E5CTLStar reproduces the Section 7 machinery: the Emerson–Lei check
// and the case-split witness construction on the fragment
// E ⋀ (GF p ∨ FG q), including their agreement and relative cost.
func E5CTLStar() *Report {
	r := &Report{ID: "E5", Title: "CTL* fragment checking and witnesses (Section 7)"}
	rng := rand.New(rand.NewSource(7))

	formulas := []ctlstar.Formula{
		ctlstar.MustParse("E (GF p)"),
		ctlstar.MustParse("E (GF p | FG q)"),
		ctlstar.MustParse("E (GF p) & (GF q)"),
		ctlstar.MustParse("E (GF p | FG q) & (GF q | FG p)"),
	}
	var elTime, splitTime, witTime time.Duration
	agree := 0
	witnesses := 0
	for trial := 0; trial < 20; trial++ {
		e := kripke.RandomExplicit(rng, 10+rng.Intn(10), 2, []string{"p", "q"}, trial%2, 0.3)
		s := kripke.FromExplicit(e)
		sc := ctlstar.New(mc.New(s))
		for _, f := range formulas {
			t0 := time.Now()
			el, err := sc.CheckEL(f)
			elTime += time.Since(t0)
			if err != nil {
				r.Err = err
				return r
			}
			t0 = time.Now()
			cs, err := sc.CheckSplit(f)
			splitTime += time.Since(t0)
			if err != nil {
				r.Err = err
				return r
			}
			if el != cs {
				r.Err = fmt.Errorf("EL and case-split disagree on %s", f)
				return r
			}
			agree++
			reach, _ := s.Reachable()
			for _, st := range s.EnumStates(s.M.And(reach, el), 2) {
				t0 = time.Now()
				tr, err := sc.Witness(f, st)
				witTime += time.Since(t0)
				if err != nil {
					r.Err = err
					return r
				}
				if err := sc.ValidateWitness(f, tr); err != nil {
					r.Err = fmt.Errorf("invalid CTL* witness: %w", err)
					return r
				}
				witnesses++
			}
		}
	}
	r.add("checking procedures agree", "fixpoint formula of [8] is exact",
		fmt.Sprintf("%d formula/model pairs, EL == case-split everywhere", agree))
	r.add("checking cost", "single fixpoint vs exponential case split",
		fmt.Sprintf("EL %.1fms vs split %.1fms total", float64(elTime.Microseconds())/1000, float64(splitTime.Microseconds())/1000))
	r.add("witnesses generated", "reduction to fair EG (Section 7)",
		fmt.Sprintf("%d lassos, all validated (%.1fms)", witnesses, float64(witTime.Microseconds())/1000))
	return r
}

// E6Containment reproduces Section 8: Streett language containment with
// counterexample words.
func E6Containment() *Report {
	r := &Report{ID: "E6", Title: "Streett language containment (Section 8)"}

	infA := func() *automata.Streett {
		a := automata.NewStreett("infA", 2, []string{"a", "b"})
		a.Init = 1
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 1)
		a.AddTrans(1, "a", 0)
		a.AddTrans(1, "b", 1)
		a.AddPair("inf-a", nil, []int{0})
		return a
	}
	evB := func() *automata.Streett {
		a := automata.NewStreett("evB", 2, []string{"a", "b"})
		a.Init = 1
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 1)
		a.AddTrans(1, "a", 0)
		a.AddTrans(1, "b", 1)
		a.AddPair("fin-a", []int{1}, nil)
		return a
	}
	all := func() *automata.Streett {
		a := automata.NewStreett("all", 1, []string{"a", "b"})
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 0)
		a.AddPair("trivial", []int{0}, nil)
		return a
	}

	cases := []struct {
		k, kp *automata.Streett
		want  bool
	}{
		{evB(), all(), true},
		{all(), infA(), false},
		{infA(), evB(), false},
		{evB(), infA(), false},
		{infA(), infA(), true},
	}
	t0 := time.Now()
	checked, cexValid := 0, 0
	for _, c := range cases {
		res, err := automata.CheckContainment(c.k, c.kp)
		if err != nil {
			r.Err = err
			return r
		}
		if res.Contained != c.want {
			r.Err = fmt.Errorf("L(%s) ⊆ L(%s): got %v want %v", c.k.Name, c.kp.Name, res.Contained, c.want)
			return r
		}
		checked++
		if !res.Contained {
			accK, err := c.k.Accepts(res.Word)
			if err != nil {
				r.Err = err
				return r
			}
			accKp, err := c.kp.Accepts(res.Word)
			if err != nil {
				r.Err = err
				return r
			}
			if !accK || accKp {
				r.Err = fmt.Errorf("counterexample word %s not in L(%s)\\L(%s)",
					res.Word.Format(c.k.Alphabet), c.k.Name, c.kp.Name)
				return r
			}
			cexValid++
		}
	}
	r.add("containment checks", "L(K) ⊆ L(K') iff M(K,K') ⊨ ¬E(φ_F ∧ ¬φ_F')",
		fmt.Sprintf("%d pairs decided correctly in %.1fms", checked, float64(time.Since(t0).Microseconds())/1000))
	r.add("counterexample words", "witness of the CTL* formula, lifted to a word",
		fmt.Sprintf("%d ultimately periodic words, each verified ∈ L(K)\\L(K')", cexValid))
	return r
}

// E7SymbolicVsExplicit contrasts the symbolic checker with the explicit
// EMC baseline on chained arbiters: the explicit state count multiplies
// per copy (the paper's [7] failed on one arbiter) while the symbolic
// representation stays small.
func E7SymbolicVsExplicit(maxCopies int, explicitLimit int) *Report {
	r := &Report{ID: "E7", Title: "Symbolic vs. explicit enumeration (the EMC baseline)"}
	for k := 1; k <= maxCopies; k++ {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			r.Err = err
			return r
		}
		t0 := time.Now()
		reach, _ := model.Reachable()
		count := model.CountStates(reach)
		symTime := time.Since(t0)
		nodes := model.M.Size(reach)

		t0 = time.Now()
		e, _, err := model.ToExplicitBounded(explicitLimit, explicitLimit*160)
		expTime := time.Since(t0)
		var expResult string
		if err != nil {
			expResult = fmt.Sprintf("gave up after %.2fs (%v)", expTime.Seconds(), err)
		} else {
			edges := 0
			for _, su := range e.Succ {
				edges += len(su)
			}
			expResult = fmt.Sprintf("enumerated %d states / %d edges in %.2fs", e.N, edges, expTime.Seconds())
		}
		r.add(fmt.Sprintf("%d arbiter(s), %d nets", k, len(model.Vars)),
			"explicit checker \"failed because the number of states was too large\"",
			fmt.Sprintf("%.3g states; symbolic reach %.2fs (%d BDD nodes); explicit %s",
				count, symTime.Seconds(), nodes, expResult))
	}
	r.note("The paper reports the explicit-state checker of [7] could not handle " +
		"the full arbiter and required disabling one input device; the symbolic " +
		"representation grows linearly in the number of chained copies while the " +
		"state count multiplies.")
	return r
}

// E8RestartStrategies is the ablation DESIGN.md calls out: the simple
// restart strategy vs. the precomputed-closure strategy on deep SCC
// chains.
func E8RestartStrategies(depth int) *Report {
	r := &Report{ID: "E8", Title: "Ablation: cycle-closure restart strategies (Section 6)"}
	e := sccChain(depth)
	s := kripke.FromExplicit(e)
	for _, strat := range []core.Strategy{core.StrategySimple, core.StrategyPrecompute} {
		gen := core.NewGenerator(mc.New(s))
		gen.Strategy = strat
		t0 := time.Now()
		tr, err := gen.WitnessEG(bdd.True, kripke.IndexState(0, len(s.Vars)))
		if err != nil {
			r.Err = err
			return r
		}
		if err := core.ValidateEG(s, tr, bdd.True); err != nil {
			r.Err = err
			return r
		}
		r.add(fmt.Sprintf("strategy=%s, %d-SCC chain", strat, depth),
			"\"slightly more sophisticated\" variant saves failed closures",
			fmt.Sprintf("%.2fms, restarts=%d, earlyExits=%d, ringSteps=%d, witness=%d states",
				float64(time.Since(t0).Microseconds())/1000,
				gen.Stats.Restarts, gen.Stats.EarlyExits, gen.Stats.RingSteps, tr.Len()))
	}
	return r
}

// sccChain builds a chain of `depth` 2-state SCCs where only the last
// SCC satisfies the second fairness constraint, forcing depth-1
// restarts.
func sccChain(depth int) *kripke.Explicit {
	e := kripke.NewExplicit(2 * depth)
	h1 := make([]bool, 2*depth)
	h2 := make([]bool, 2*depth)
	for i := 0; i < depth; i++ {
		a, b := 2*i, 2*i+1
		e.AddEdge(a, b)
		e.AddEdge(b, a)
		if i < depth-1 {
			e.AddEdge(b, a+2)
		}
		h1[a] = true
		if i == depth-1 {
			h2[b] = true
		}
	}
	e.AddInit(0)
	e.AddFairSet("h1", h1)
	e.AddFairSet("h2", h2)
	return e
}

// E9Explicit cross-checks the two checkers on random models — the
// correctness keystone, reported as an experiment for visibility.
func E9Explicit(trials int) *Report {
	r := &Report{ID: "E9", Title: "Cross-validation: symbolic vs. explicit CTL semantics"}
	rng := rand.New(rand.NewSource(99))
	atoms := []string{"p", "q"}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		e := kripke.RandomExplicit(rng, 8+rng.Intn(8), 2, atoms, trial%3, 0.25)
		s := kripke.FromExplicit(e)
		sym := mc.New(s)
		exp := explicit.New(e)
		for _, src := range []string{
			"EG p", "E [p U q]", "AG (p -> AF q)", "AF (p & EX q)", "A [p U q]",
		} {
			f := ctl.MustParse(src)
			symSet, err := sym.Check(f)
			if err != nil {
				r.Err = err
				return r
			}
			expSet, err := exp.Check(f)
			if err != nil {
				r.Err = err
				return r
			}
			for st := 0; st < e.N; st++ {
				if s.Holds(symSet, kripke.IndexState(st, len(s.Vars))) != expSet[st] {
					r.Err = fmt.Errorf("disagreement on %s at state %d (trial %d)", src, st, trial)
					return r
				}
				checked++
			}
		}
	}
	r.add("agreement", "symbolic algorithm == graph-traversal semantics",
		fmt.Sprintf("%d state/formula checks, 0 disagreements", checked))
	return r
}

// All returns the experiment list as (id, runner) pairs so callers can
// stream results as they complete.
func All() []Entry {
	return []Entry{
		{"E1", func() *Report { return E1Arbiter() }},
		{"E2", func() *Report { return E2SingleSCC() }},
		{"E3", func() *Report { return E3MultiSCC() }},
		{"E4", func() *Report { return E4MinimalVsHeuristic(11, 15) }},
		{"E5", func() *Report { return E5CTLStar() }},
		{"E6", func() *Report { return E6Containment() }},
		{"E7", func() *Report { return E7SymbolicVsExplicit(2, 20000) }},
		{"E8", func() *Report { return E8RestartStrategies(6) }},
		{"E9", func() *Report { return E9Explicit(20) }},
		{"E10", func() *Report { return E10Compaction() }},
		{"E11", func() *Report { return E11PartitionedTrans() }},
		{"E12", func() *Report { return E12TreeArbiter() }},
	}
}

// E12TreeArbiter is a second debugging case study in the paper's style:
// a naive speed-independent tree arbiter whose per-node ME elements are
// individually correct, but whose delayed acknowledgment gates leak a
// stale grant — end-to-end mutual exclusion fails and the checker
// produces the hazard interleaving.
func E12TreeArbiter() *Report {
	r := &Report{ID: "E12", Title: "Second case study: stale-ack hazard in a naive tree arbiter"}
	for _, levels := range []int{1, 2} {
		start := time.Now()
		model, err := circuit.TreeArbiter(levels).Compile()
		if err != nil {
			r.Err = err
			return r
		}
		reach, _ := model.Reachable()
		count := model.CountStates(reach)

		c := mc.New(model)
		perNode := true
		for k := 1; k < 1<<levels; k++ {
			set, err := c.Check(ctl.MustParse(fmt.Sprintf("AG !(g%d_l & g%d_r)", k, k)))
			if err != nil {
				r.Err = err
				return r
			}
			if !model.M.Implies(model.Init, set) {
				perNode = false
			}
		}
		gen := core.NewGenerator(c)
		ok, tr, err := gen.CounterexampleInit(ctl.MustParse(circuit.TreeArbiterMutexSpec(levels)))
		if err != nil {
			r.Err = err
			return r
		}
		status := "hazard found"
		trLen := 0
		if ok {
			status = "NO hazard (unexpected)"
		} else {
			if err := core.ValidatePath(model, tr); err != nil {
				r.Err = fmt.Errorf("invalid hazard trace: %w", err)
				return r
			}
			trLen = tr.Len()
		}
		r.add(fmt.Sprintf("%d users, %d nets", 1<<levels, len(model.Vars)),
			"counterexamples debug subtle async-circuit races (§6)",
			fmt.Sprintf("%.3g states; per-ME safety=%v; end-to-end mutex: %s (trace %d states, validated) in %.2fs",
				count, perNode, status, trLen, time.Since(start).Seconds()))
	}
	r.note("Every ME element satisfies its own AG !(g_l ∧ g_r); the ack gates' " +
		"independent delays nevertheless let a stale acknowledgment overlap a fresh " +
		"one — the same class of speed-independence bug as the paper's Seitz arbiter.")
	return r
}

// E11PartitionedTrans is the second ablation: monolithic transition
// relation vs. conjunctive partitioning with early quantification, on
// chained arbiters.
func E11PartitionedTrans() *Report {
	r := &Report{ID: "E11", Title: "Ablation: monolithic vs. partitioned transition relation"}
	for _, k := range []int{1, 2} {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			r.Err = err
			return r
		}
		if model.NumClusters() == 0 {
			r.Err = fmt.Errorf("expected clusters on the compiled circuit")
			return r
		}
		transNodes := model.M.Size(model.Trans())
		nclusters := model.NumClusters()

		t0 := time.Now()
		reachPart, _ := model.Reachable()
		partTime := time.Since(t0)

		model.EnablePartition(false)
		t0 = time.Now()
		reachMono, _ := model.Reachable()
		monoTime := time.Since(t0)
		model.EnablePartition(true)

		if reachPart != reachMono {
			r.Err = fmt.Errorf("k=%d: partitioned and monolithic reachability disagree", k)
			return r
		}
		r.add(fmt.Sprintf("%d arbiter(s), %d clusters", k, nclusters),
			"partitioned R with early quantification (SMV technique)",
			fmt.Sprintf("monolithic %0.f-node R: %.3fs; partitioned: %.3fs",
				float64(transNodes), monoTime.Seconds(), partTime.Seconds()))
	}
	r.note("Both paths compute identical reachable sets (checked by canonicity); " +
		"the win of partitioning grows with model size because the monolithic " +
		"relational product drags the full R through every image step.")
	return r
}

// Entry pairs an experiment id with its runner.
type Entry struct {
	ID  string
	Run func() *Report
}

// E10Compaction measures the Section 9 extension: shortcut-based trace
// compaction on the arbiter counterexample and on random fair models.
func E10Compaction() *Report {
	r := &Report{ID: "E10", Title: "Extension: counterexample compaction (Section 9 future work)"}
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		r.Err = err
		return r
	}
	gen := core.NewGenerator(mc.New(model))
	_, tr, err := gen.CounterexampleInit(ctl.MustParse("AG (tr1 -> AF ta1)"))
	if err != nil {
		r.Err = err
		return r
	}
	before := tr.Len()
	removed := core.Compact(model, tr)
	if err := core.ValidatePath(model, tr); err != nil {
		r.Err = fmt.Errorf("compacted trace invalid: %w", err)
		return r
	}
	r.add("arbiter counterexample", "\"techniques for generating even shorter counterexamples\" (§9)",
		fmt.Sprintf("%d -> %d states (%d removed, still a valid fair lasso)", before, tr.Len(), removed))

	rng := rand.New(rand.NewSource(13))
	sumBefore, sumAfter, count := 0, 0, 0
	for trial := 0; trial < 25; trial++ {
		e := kripke.RandomExplicit(rng, 8+rng.Intn(10), 3, nil, 1+trial%3, 0.2)
		s := kripke.FromExplicit(e)
		g := core.NewGenerator(mc.New(s))
		start := kripke.IndexState(e.Init[0], len(s.Vars))
		if !s.Holds(g.C.Fair(), start) {
			continue
		}
		w, err := g.WitnessEG(bdd.True, start)
		if err != nil {
			r.Err = err
			return r
		}
		sumBefore += w.Len()
		core.Compact(s, w)
		if err := core.ValidateEG(s, w, bdd.True); err != nil {
			r.Err = err
			return r
		}
		sumAfter += w.Len()
		count++
	}
	r.add("random fair models", "n/a (extension)",
		fmt.Sprintf("avg witness %.1f -> %.1f states over %d models",
			float64(sumBefore)/float64(count), float64(sumAfter)/float64(count), count))
	return r
}
