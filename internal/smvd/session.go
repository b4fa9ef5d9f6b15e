package smvd

import (
	"fmt"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/smv"
)

// Session is one cached compiled model: a BDD manager, the compiled
// symbolic structure, and a checker whose memo, care set and fair set
// live as long as the session does. Everything under mu is single-
// threaded — a bdd.Manager is not safe for concurrent use — so queries
// against one model serialize while queries against different models
// run in parallel.
type Session struct {
	Key string
	Cfg smv.Config

	mu       chan struct{} // 1-slot semaphore: lockable with a deadline
	compiled *smv.Compiled
	checker  *mc.Checker
	gen      *core.Generator

	ready      bool   // reachable + fair sets populated
	broken     bool   // a query panicked: never query or save again
	warmSource string // "" (cold), "disk" (restored from a v3 record)
	reachIters int
	reachCount float64

	queries   uint64
	createdAt time.Time
	lastUsed  time.Time
}

// SpecVerdict is the outcome of one spec within a query.
type SpecVerdict struct {
	Spec      string `json:"spec"`
	Holds     bool   `json:"holds"`
	Trace     string `json:"trace,omitempty"`
	States    int    `json:"trace_states,omitempty"`
	Validated bool   `json:"validated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SessionStats is the per-session block of /statsz.
type SessionStats struct {
	Key             string  `json:"key"`
	Busy            bool    `json:"busy,omitempty"`
	Queries         uint64  `json:"queries"`
	Ready           bool    `json:"ready"`
	WarmSource      string  `json:"warm_source,omitempty"`
	ReachIters      int     `json:"reach_iters"`
	ReachableStates float64 `json:"reachable_states"`
	LiveNodes       int     `json:"live_nodes"`
	CacheSize       int     `json:"cache_size"`
	MemoHits        uint64  `json:"memo_hits"`
	RingReuses      uint64  `json:"ring_reuses"`
	ReachableReuses uint64  `json:"reachable_reuses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`

	Rel kripke.RelStats `json:"rel"`
}

// newSession parses and compiles the model under the given engine
// configuration. The expensive fixpoints (reachability, fair states)
// are NOT run here; they are populated by the first query (ensureReady)
// or seeded from a disk record (warmStart).
func newSession(key, src string, cfg smv.Config) (*Session, error) {
	cfg = normalize(cfg)
	compiled, err := smv.CompileSource(src, cfg)
	if err != nil {
		return nil, err
	}
	compiled.S.EnableReachableCache()
	checker := mc.New(compiled.S)
	s := &Session{
		Key:       key,
		Cfg:       cfg,
		mu:        make(chan struct{}, 1),
		compiled:  compiled,
		checker:   checker,
		gen:       core.NewGenerator(checker),
		createdAt: time.Now(),
	}
	return s, nil
}

// lock acquires the session for one query, failing if the deadline
// passes first (a slow query on a shared session must not make later
// ones block past their own budgets).
func (s *Session) lock(deadline time.Time) error {
	if deadline.IsZero() {
		s.mu <- struct{}{}
		return nil
	}
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case s.mu <- struct{}{}:
		return nil
	case <-wait.C:
		return fmt.Errorf("%w waiting for session %.12s", ErrDeadlineExceeded, s.Key)
	}
}

func (s *Session) unlock() { <-s.mu }

// warmStart seeds the session's fixpoint results from a disk record:
// the reachable set becomes the care set and the fair set is installed
// directly, so the first query skips both fixpoints. Caller holds the
// session lock (or exclusivity by construction).
func (s *Session) warmStart(reach, fair bdd.Ref, iters int) {
	s.compiled.S.SetReachable(reach, iters)
	s.checker.SetCareSet(reach)
	// SetCareSet clears the fair cache, so the seed must come after it.
	s.checker.SeedFair(fair)
	s.reachIters = iters
	s.reachCount = s.compiled.S.CountStates(reach)
	s.ready = true
	s.warmSource = "disk"
}

// ensureReady runs the session's one-time fixpoints: reachable states
// (installed as the care set) and the fair-state set. Later queries —
// and later calls here — reuse both.
func (s *Session) ensureReady() {
	if s.ready {
		return
	}
	reach := s.checker.UseReachableCareSet()
	s.checker.Fair()
	_, iters, _ := s.compiled.S.ReachableCached()
	s.reachIters = iters
	s.reachCount = s.compiled.S.CountStates(reach)
	s.ready = true
}

// expired reports whether the deadline (if any) has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// budgetReorder maps the remaining request budget onto the sifting
// engine's own time bound, so a reorder triggered mid-query cannot
// consume the whole deadline.
func (s *Session) budgetReorder(deadline time.Time) {
	if !s.Cfg.Reorder || deadline.IsZero() {
		return
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return
	}
	opts := bdd.DefaultReorderOptions()
	opts.SiftMaxTime = remaining / 4
	s.compiled.S.M.EnableAutoReorder(&opts)
}

// checkCTL evaluates one CTL spec, producing a validated trace for
// failures.
func (s *Session) checkCTL(spec string) SpecVerdict {
	v := SpecVerdict{Spec: spec}
	f, err := ctl.Parse(spec)
	if err != nil {
		v.Error = err.Error()
		return v
	}
	if err := s.compiled.ResolveSpecAtoms(f); err != nil {
		v.Error = err.Error()
		return v
	}
	holds, tr, err := s.gen.CounterexampleInit(f)
	if err != nil {
		v.Error = err.Error()
		return v
	}
	v.Holds = holds
	if tr != nil {
		if err := core.ValidatePath(s.compiled.S, tr); err != nil {
			v.Error = fmt.Sprintf("counterexample failed validation: %v", err)
			return v
		}
		v.Validated = true
		v.Trace = s.compiled.TraceString(tr)
		v.States = len(tr.States)
	}
	return v
}

// checkLTL evaluates one LTL spec by compiling the Büchi tableau
// product on a fresh manager under the session's config — the product's
// variables and fairness sets are per-formula, so it cannot share the
// session manager — and replaying any counterexample against the
// formula's semantics.
func (s *Session) checkLTL(spec string) SpecVerdict {
	v := SpecVerdict{Spec: spec}
	f, err := ltl.Parse(spec)
	if err != nil {
		v.Error = err.Error()
		return v
	}
	p, err := s.compiled.Product(f, spec)
	if err != nil {
		v.Error = err.Error()
		return v
	}
	ch := mc.New(p.S)
	defer ch.Close()
	holds, tr, err := p.Check(ch)
	if err != nil {
		v.Error = err.Error()
		return v
	}
	v.Holds = holds
	if tr != nil {
		if err := core.ValidatePath(p.S, tr); err != nil {
			v.Error = fmt.Sprintf("counterexample failed validation: %v", err)
			return v
		}
		if err := p.ReplayCounterexample(tr); err != nil {
			v.Error = fmt.Sprintf("counterexample failed replay: %v", err)
			return v
		}
		v.Validated = true
		v.Trace = p.FormatLassoByVars(tr)
		v.States = len(tr.States)
	}
	return v
}

// query runs one request against the session. Caller holds the lock.
// Specs after a deadline expiry are reported as errors rather than
// silently dropped.
func (s *Session) query(specs, ltlSpecs []string, deadline time.Time) (wasReady bool, out []SpecVerdict) {
	s.queries++
	s.lastUsed = time.Now()
	wasReady = s.ready
	s.budgetReorder(deadline)
	s.ensureReady()
	for _, sp := range specs {
		if expired(deadline) {
			out = append(out, SpecVerdict{Spec: sp, Error: ErrDeadlineExceeded.Error()})
			continue
		}
		out = append(out, s.checkCTL(sp))
	}
	for _, sp := range ltlSpecs {
		if expired(deadline) {
			out = append(out, SpecVerdict{Spec: sp, Error: ErrDeadlineExceeded.Error()})
			continue
		}
		out = append(out, s.checkLTL(sp))
	}
	return wasReady, out
}

// stats snapshots the session counters. Caller holds the lock.
func (s *Session) stats() SessionStats {
	rel := s.compiled.S.RelStats()
	return SessionStats{
		Key:             s.Key,
		Queries:         s.queries,
		Ready:           s.ready,
		WarmSource:      s.warmSource,
		ReachIters:      s.reachIters,
		ReachableStates: s.reachCount,
		LiveNodes:       s.compiled.S.M.NumNodes(),
		CacheSize:       s.compiled.S.M.CacheSize(),
		MemoHits:        s.checker.Stats.MemoHits,
		RingReuses:      s.checker.Stats.RingReuses,
		ReachableReuses: rel.ReachableReuses,
		CacheHitRate:    rel.CacheHitRate(),
		Rel:             rel,
	}
}

// liveNodes reports the manager's live-node count. Caller holds the
// lock.
func (s *Session) liveNodes() int { return s.compiled.S.M.NumNodes() }

// warmRefs returns the roots a warm-start record needs, if the session
// has them and no query broke it. Caller holds the lock.
func (s *Session) warmRefs() (reach, fair bdd.Ref, iters int, ok bool) {
	if !s.ready || s.broken {
		return 0, 0, 0, false
	}
	reach, iters, ok = s.compiled.S.ReachableCached()
	if !ok {
		return 0, 0, 0, false
	}
	fair, okFair := s.checker.CachedFair()
	if !okFair {
		return 0, 0, 0, false
	}
	return reach, fair, iters, true
}
