package main

import (
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// model is a compiled model with its checker and witness generator: what
// one `smv` run builds, and what an smvd session keeps.
type model struct {
	c       *smv.Compiled
	checker *mc.Checker
	gen     *core.Generator
}

// configure applies an engine configuration to a compiled structure, the
// way cmd/smv and smvd sessions do.
func configure(s *kripke.Symbolic, cfg smvd.Config) {
	if cfg.Reorder {
		s.M.EnableAutoReorder(nil)
	}
	if cfg.Disjunctive && s.NumDisjuncts() > 0 {
		s.EnableDisjunct(true)
	}
	s.SetWorkers(cfg.Workers)
}

// compileModel compiles a parsed module under cfg with the reachable set
// cached, so that it can be seeded from a record or saved into one.
func compileModel(module *smv.Module, cfg smvd.Config) (*model, error) {
	c, err := smv.Compile(module)
	if err != nil {
		return nil, err
	}
	configure(c.S, cfg)
	c.S.EnableReachableCache()
	checker := mc.New(c.S)
	return &model{c: c, checker: checker, gen: core.NewGenerator(checker)}, nil
}

// ready runs the one-time fixpoints: the reachable set, installed as the
// checker's care set, then the fair set.
func (m *model) ready(t *tracer, parent int) {
	var reach bdd.Ref
	var iters int
	var images uint64
	if t != nil {
		images = m.c.S.RelStats().ImageCalls
	}
	t.call("kripke.reach", parent, func() { reach, iters = m.c.S.Reachable() })
	if t != nil {
		t.counts.reachIters += iters
		t.counts.reachImages += m.c.S.RelStats().ImageCalls - images
	}
	m.checker.SetCareSet(reach)
	t.call("mc.fair", parent, func() { m.checker.Fair() })
}

// warmStart seeds the fixpoint results from the model's warm-start
// record, as an smvd session does on a cache miss, and reports whether a
// record existed.
func (m *model) warmStart(store *smvd.DiskStore, key string) (bool, error) {
	reach, fair, iters, ok, err := store.Load(key, m.c.S.M)
	if err != nil || !ok {
		return false, err
	}
	m.c.S.SetReachable(reach, iters)
	m.checker.SetCareSet(reach)
	// SetCareSet clears the fair cache, so the seed comes after it.
	m.checker.SeedFair(fair)
	return true, nil
}

// save writes the model's warm-start record, as an smvd eviction does.
func (m *model) save(store *smvd.DiskStore, key string) error {
	reach, iters, ok := m.c.S.ReachableCached()
	fair, okFair := m.checker.CachedFair()
	if !ok || !okFair {
		return nil
	}
	return store.Save(key, smvd.Config{}, m.c.S.M, reach, fair, iters)
}

// snapshot reads the model's cumulative counters.
func (m *model) snapshot() snapshot {
	return snapshot{bdd: m.c.S.M.Stats, rel: m.c.S.RelStats(), mc: m.checker.Stats, gen: m.gen.Stats}
}

// peak is the largest live-node count the model's manager has reported.
func (m *model) peak() int {
	return max(m.c.S.RelStats().PeakLiveNodes, m.checker.Stats.PeakNodes, m.c.S.M.NumNodes())
}

// spec is a CTL spec as a request carries it: its text, and its formula
// when the model file already parsed it.
type spec struct {
	text string
	f    *ctl.Formula
}

// checkCTL checks one CTL spec the way an smvd session does: the
// memoised fixpoints, the counterexample from a failing initial state,
// its validation against the model, and its text.
func (m *model) checkCTL(sp spec, t *tracer, parent int) (r specResult) {
	id := t.begin("spec", parent)
	defer t.end(id)
	f := sp.f
	var err error
	t.call("ctl.parse", id, func() {
		if f == nil {
			f, err = ctl.Parse(sp.text)
		}
		if err == nil {
			err = m.c.ResolveSpecAtoms(f)
		}
	})
	if err != nil {
		return specResult{err: err}
	}
	t.call("mc.check", id, func() { _, err = m.checker.Check(f) })
	if err != nil {
		return specResult{err: err}
	}
	var tr *core.Trace
	t.call("core.witness", id, func() { r.holds, tr, err = m.gen.CounterexampleInit(f) })
	switch {
	case err != nil:
		return specResult{err: err}
	case r.holds:
		return r
	case tr == nil:
		return specResult{err: errors.New("failing spec without a counterexample")}
	}
	t.call("core.validate", id, func() { err = core.ValidatePath(m.c.S, tr) })
	if err != nil {
		return specResult{err: fmt.Errorf("counterexample failed validation: %w", err)}
	}
	var text string
	t.call("smv.format", id, func() { text = m.c.TraceString(tr) })
	if text == "" {
		return specResult{err: errors.New("counterexample printed as nothing")}
	}
	if t != nil {
		t.counts.ctlTraces++
		t.counts.ctlTraceStates += len(tr.States)
	}
	r.states = len(tr.States)
	return r
}

// checkLTL checks one LTL spec the way `smv` does: the product of the
// module with the tableau of the negated formula on a fresh manager, its
// fair emptiness, and for a failing spec a lasso that is validated
// against the product and replayed against the formula. It also returns
// the product's peak live nodes.
func checkLTL(module *smv.Module, sp *smv.LTLSpec, cfg smvd.Config, t *tracer, parent int) (specResult, int) {
	id := t.begin("spec", parent)
	defer t.end(id)
	var p *smv.LTLProduct
	var err error
	t.call("ltl.compile", id, func() {
		if p, err = smv.CompileLTL(module, sp.Formula, sp.Source); err == nil {
			configure(p.S, cfg)
		}
	})
	if err != nil {
		return specResult{err: err}, 0
	}
	ch := mc.New(p.S)
	defer ch.Close()
	var r specResult
	var tr *core.Trace
	t.call("ltl.check", id, func() { r.holds, tr, err = p.Check(ch) })
	if err == nil && !r.holds {
		t.call("ltl.replay", id, func() {
			if err = core.ValidatePath(p.S, tr); err == nil {
				err = p.ReplayCounterexample(tr)
			}
		})
		if err == nil {
			var text string
			t.call("smv.format", id, func() { text = p.TraceString(tr) })
			if text == "" {
				err = errors.New("counterexample printed as nothing")
			}
			r.states = len(tr.States)
		}
	}
	peak := max(p.S.RelStats().PeakLiveNodes, ch.Stats.PeakNodes, p.S.M.NumNodes())
	if t != nil {
		t.counts.addBDD(bdd.Stats{}, p.S.M.Stats)
		t.counts.ltlProducts++
		t.counts.tableauVars += len(p.ElemVars)
		t.counts.ltlPeak = max(t.counts.ltlPeak, peak)
	}
	if err != nil {
		return specResult{err: err}, peak
	}
	return r, peak
}
