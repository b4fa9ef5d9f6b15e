package smvd

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
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

	ready      bool     // reachable + fair sets populated
	broken     bool     // a query panicked: never query or save again
	warmSource string   // "" (cold), "disk" (restored from a v3 record)
	restored   Restored // the checker state a disk warm start put back
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
	RestoredSets    int     `json:"restored_sets"`  // memo entries and EG seeds read from the record
	RestoredRings   int     `json:"restored_rings"` // onion rings read from the record
	ReachIters      int     `json:"reach_iters"`
	ReachableStates float64 `json:"reachable_states"`
	LiveNodes       int     `json:"live_nodes"`
	CacheSize       int     `json:"cache_size"` // slots of the session manager's computed table
	MemoHits        uint64  `json:"memo_hits"`
	RingReuses      uint64  `json:"ring_reuses"`
	WalkClosures    uint64  `json:"walk_closures"`
	WalkFallbacks   uint64  `json:"walk_fallbacks"`
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

// ensureReady runs the session's one-time fixpoints: reachable states
// (installed as the care set) and the fair-state set. Later queries —
// and later calls here — reuse both.
func (s *Session) ensureReady() {
	if s.ready {
		return
	}
	s.checker.UseReachableCareSet()
	s.checker.Fair()
	s.markReady()
}

// markReady records the reachable set's counts once the reachable and
// fair sets exist, computed or restored from disk.
func (s *Session) markReady() {
	reach, iters, _ := s.compiled.S.ReachableCached()
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
// consume the whole deadline. A request without a deadline lifts the
// bound an earlier request set. Re-arming keeps the growth baseline.
func (s *Session) budgetReorder(deadline time.Time) {
	if !s.Cfg.Reorder {
		return
	}
	opts := bdd.DefaultReorderOptions()
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		opts.SiftMaxTime = remaining / 4
	}
	s.compiled.S.M.EnableAutoReorder(&opts)
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
	for i, spec := range slices.Concat(specs, ltlSpecs) {
		if expired(deadline) {
			out = append(out, SpecVerdict{Spec: spec, Error: ErrDeadlineExceeded.Error()})
			continue
		}
		ltl := i >= len(specs)
		parse := ctl.Parse
		if ltl {
			parse = ctl.ParseLTL
		}
		f, err := parse(spec)
		var v smv.Verdict
		switch {
		case err != nil:
		case ltl:
			v, err = s.compiled.CheckLTL(f, spec)
		default:
			v, err = s.compiled.CheckCTL(s.gen, f)
		}
		out = append(out, s.verdict(spec, v, err))
	}
	return wasReady, out
}

// verdict renders one spec's outcome; a failing spec's trace has been
// validated (and, for LTL, replayed) by the check that produced it.
func (s *Session) verdict(spec string, v smv.Verdict, err error) SpecVerdict {
	if err != nil {
		return SpecVerdict{Spec: spec, Error: err.Error()}
	}
	out := SpecVerdict{Spec: spec, Holds: v.Holds}
	if v.Trace != nil {
		on := s.compiled
		if v.Product != nil {
			on = v.Product.Compiled
		}
		out.Validated = true
		out.Trace = on.TraceString(v.Trace)
		out.States = len(v.Trace.States)
	}
	return out
}

// stats snapshots the session counters. Caller holds the lock.
func (s *Session) stats() SessionStats {
	rel := s.compiled.S.RelStats()
	return SessionStats{
		Key:             s.Key,
		Queries:         s.queries,
		Ready:           s.ready,
		WarmSource:      s.warmSource,
		RestoredSets:    s.restored.Sets,
		RestoredRings:   s.restored.Rings,
		ReachIters:      s.reachIters,
		ReachableStates: s.reachCount,
		LiveNodes:       s.compiled.S.M.NumNodes(),
		CacheSize:       s.compiled.S.M.CacheSize(),
		MemoHits:        s.checker.Stats.MemoHits,
		RingReuses:      s.checker.Stats.RingReuses,
		WalkClosures:    s.gen.Stats.WalkClosures,
		WalkFallbacks:   s.gen.Stats.WalkFallbacks,
		ReachableReuses: rel.ReachableReuses,
		CacheHitRate:    rel.CacheHitRate(),
		Rel:             rel,
	}
}

// liveNodes reports the manager's node count for the node budget.
// The count includes garbage until the next collection, so a count over
// budget is taken again after collecting: garbage alone never evicts a
// session. Everything the session keeps across queries is protected;
// the collection drops the witness ring caches. Caller holds the lock.
func (s *Session) liveNodes(budget int) int {
	m := s.compiled.S.M
	if budget > 0 && m.NumNodes() > budget {
		m.GC()
	}
	return m.NumNodes()
}
