package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/modelgen"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// The session pool is arbiterCopies tagged arbiter-8 sources (the same
// checking work under distinct content hashes, so distinct sessions)
// plus poolModels. The churn cache holds about a quarter of the pool, so
// its working set is four times the cache.
const (
	arbiterCopies  = 8
	churnCapacity  = 3
	warmClients    = 2
	churnClients   = 1
	warmupRequests = 500
	warmupClient   = -1 // stream of the set-up warm-up, apart from the timed clients'
)

var poolModels = []string{"seitz.smv", "hanoi.smv", "peterson.smv", "ring.smv"}

// poolModel is one model of the session pool and the CTL specs its
// requests draw from.
type poolModel struct {
	name  string
	src   string
	specs []string
	want  []bool
	fails []int // indices of the specs that fail
}

// loadPool builds the pool from the arbiter generator and root/models.
func loadPool(root string) ([]poolModel, error) {
	specs, holds := modelgen.ArbiterSpecs(8)
	arbiter := modelgen.ArbiterSource(8)
	var pool []poolModel
	for i := range arbiterCopies {
		pool = append(pool, poolModel{
			name:  fmt.Sprintf("arbiter-8#%d", i),
			src:   fmt.Sprintf("-- perfbench session %d\n%s", i, arbiter),
			specs: specs,
			want:  holds,
		})
	}
	for _, name := range poolModels {
		src, err := os.ReadFile(filepath.Join(root, "models", name))
		if err != nil {
			return nil, err
		}
		module, err := smv.ParseModule(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p := poolModel{name: name, src: string(src), want: append([]bool(nil), shippedVerdicts[name].ctl...)}
		for _, sp := range module.Specs {
			p.specs = append(p.specs, sp.Source)
		}
		if extra, ok := poolExtra[name]; ok {
			p.specs = append(p.specs, extra)
			p.want = append(p.want, false)
		}
		pool = append(pool, p)
	}
	for i := range pool {
		p := &pool[i]
		if len(p.specs) != len(p.want) {
			return nil, fmt.Errorf("%s: %d specs, but %d known answers", p.name, len(p.specs), len(p.want))
		}
		for k, holds := range p.want {
			if !holds {
				p.fails = append(p.fails, k)
			}
		}
		if len(p.fails) == 0 {
			return nil, fmt.Errorf("%s: no failing spec to ask for", p.name)
		}
	}
	return pool, nil
}

// serveReq is one smvd request: a pool model and the indices of the
// specs it asks for, in the model's order.
type serveReq struct {
	model int
	specs []int
}

// allSpecs is the request for every spec of pool model i.
func allSpecs(pool []poolModel, i int) serveReq {
	r := serveReq{model: i}
	for k := range pool[i].specs {
		r.specs = append(r.specs, k)
	}
	return r
}

// serveStream is a client's seeded request sequence: uniform model
// draws, each spec included with probability one half, and one failing
// spec added when a draw holds none, so that every request gets at least
// one counterexample.
type serveStream struct {
	rng  *rand.Rand
	pool []poolModel
}

func newServeStream(seed int64, client int, pool []poolModel) *serveStream {
	return &serveStream{rng: rand.New(rand.NewSource(streamSeed(seed, client))), pool: pool}
}

func (s *serveStream) next() serveReq {
	r := serveReq{model: s.rng.Intn(len(s.pool))}
	p := &s.pool[r.model]
	failing := false
	for i := range p.specs {
		if s.rng.Intn(2) == 0 {
			r.specs = append(r.specs, i)
			failing = failing || !p.want[i]
		}
	}
	if !failing {
		r.specs = append(r.specs, p.fails[s.rng.Intn(len(p.fails))])
		sort.Ints(r.specs)
	}
	return r
}

// serveRun is the warm and churn workload: in-process smvd.Server.Check
// calls, the path an `smv -server` request takes once decoded.
type serveRun struct {
	churn   bool
	workdir string
	pool    []poolModel
	sv      *smvd.Server
	dir     string // churn: the record directory of the server's cache
}

func (w *serveRun) clients() int {
	if w.churn {
		return churnClients
	}
	return warmClients
}

func (w *serveRun) streams(seed int64) []*serveStream {
	s := make([]*serveStream, w.clients())
	for c := range s {
		s[c] = newServeStream(seed, c, w.pool)
	}
	return s
}

func (w *serveRun) setup(seed int64) error {
	pool, err := loadPool(".")
	if err != nil {
		return err
	}
	w.pool = pool
	if !w.churn {
		cache, err := smvd.NewCache(len(pool), 0, "")
		if err != nil {
			return err
		}
		w.sv = smvd.NewServer(cache)
		return w.prewarm(seed, func(r serveReq) outcome { return w.serve(w.sv, r) })
	}
	// Churn: a cache that fits the pool computes every model once and
	// writes its warm-start records; the timed server then starts empty,
	// with churnCapacity sessions over those records.
	if w.dir, err = os.MkdirTemp(w.workdir, "records-"); err != nil {
		return err
	}
	seeder, err := smvd.NewCache(len(pool), 0, w.dir)
	if err != nil {
		return err
	}
	seedSv := smvd.NewServer(seeder)
	for i := range pool {
		if out := w.serve(seedSv, allSpecs(pool, i)); out.failed > 0 {
			return fmt.Errorf("seeding %s: %d of %d specs failed", pool[i].name, out.failed, out.specs)
		}
	}
	if err := seeder.FlushAll(); err != nil {
		return err
	}
	cache, err := smvd.NewCache(churnCapacity, 0, w.dir)
	if err != nil {
		return err
	}
	w.sv = smvd.NewServer(cache)
	return nil
}

// prewarm sends every pool model all of its specs twice, then
// warmupRequests seeded requests, so that timing starts in the steady
// state: reachable and fair sets, subformula memos and computed caches
// are filled, and the nodes the witness walks build exist. Any failure
// aborts set-up.
func (w *serveRun) prewarm(seed int64, check func(serveReq) outcome) error {
	for range 2 {
		for i := range w.pool {
			if out := check(allSpecs(w.pool, i)); out.failed > 0 {
				return fmt.Errorf("pre-warming %s: %d of %d specs failed", w.pool[i].name, out.failed, out.specs)
			}
		}
	}
	stream := newServeStream(seed, warmupClient, w.pool)
	for range warmupRequests {
		if out := check(stream.next()); out.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d specs failed", out.failed, out.specs)
		}
	}
	return nil
}

// serve sends one request to sv and scores its verdicts; every failing
// verdict must come back validated.
func (w *serveRun) serve(sv *smvd.Server, r serveReq) outcome {
	p := &w.pool[r.model]
	req := &smvd.CheckRequest{Model: p.src, Specs: make([]string, len(r.specs))}
	for k, i := range r.specs {
		req.Specs[k] = p.specs[i]
	}
	out := outcome{model: r.model}
	t0 := time.Now()
	resp, err := sv.Check(req)
	out.ms = ms(time.Since(t0))
	if err == nil && len(resp.Verdicts) != len(r.specs) {
		err = fmt.Errorf("%d verdicts for %d specs", len(resp.Verdicts), len(r.specs))
	}
	if err != nil {
		out.fail(p.name, len(r.specs), err)
		return out
	}
	for k, v := range resp.Verdicts {
		res := specResult{holds: v.Holds, states: v.States}
		switch {
		case v.Error != "":
			res.err = errors.New(v.Error)
		case !v.Holds && (!v.Validated || v.States == 0):
			res.err = errors.New("counterexample not validated")
		}
		i := r.specs[k]
		out.record(p.name+": "+p.specs[i], p.want[i], res)
	}
	return out
}

// sessionPeak is the largest live-node figure any cached session
// reports; a session busy with a query reports none.
func sessionPeak(c *smvd.Cache) int {
	peak := 0
	for _, s := range c.Sessions() {
		peak = max(peak, s.LiveNodes, s.Rel.PeakLiveNodes)
	}
	return peak
}

func (w *serveRun) measure(seed int64, dur time.Duration) loopResult {
	streams := w.streams(seed)
	before := w.sv.Cache.Stats()
	r := closedLoop(w.clients(), dur, func(c int) (outcome, bool) {
		out := w.serve(w.sv, streams[c].next())
		if w.churn {
			// An evicted session takes its node counts with it, so churn
			// samples the cached sessions after every request.
			out.peakNodes = sessionPeak(w.sv.Cache)
		}
		return out, true
	})
	after := w.sv.Cache.Stats()
	r.peak = sessionPeak(w.sv.Cache)
	r.cache = smvd.CacheStats{
		Hits:           after.Hits - before.Hits,
		Misses:         after.Misses - before.Misses,
		DiskWarmStarts: after.DiskWarmStarts - before.DiskWarmStarts,
		EvictionsLRU:   after.EvictionsLRU - before.EvictionsLRU,
	}
	return r
}

// traced measures Server.Check untraced, then replays the same seeded
// requests through the calls a session makes, on benchmark-held state
// that starts in the same cache state: once untraced and once traced.
// The two replays give the tracing overhead, the traced one gives the
// layers, and Server.Check's time beyond the layers is
// smvd.overhead_ms. Each phase gets a third of dur.
func (w *serveRun) traced(seed int64, dur time.Duration) (tracedRun, error) {
	var dir string
	if w.churn {
		// The replays use their own copy of the seeded records: the
		// server's eviction flushes may still be writing to its directory.
		var err error
		if dir, err = copyRecords(w.dir, w.workdir); err != nil {
			return tracedRun{}, err
		}
		defer removeDir(dir)
	}
	phase := dur / 3
	server := w.measure(seed, phase)
	rc, err := w.newReplay(seed, dir)
	if err != nil {
		return tracedRun{}, err
	}
	plain := w.replayLoop(rc, seed, phase, nil)
	if w.churn {
		if rc, err = w.newReplay(seed, dir); err != nil {
			return tracedRun{}, err
		}
	}
	tracers := make([]*tracer, w.clients())
	for c := range tracers {
		tracers[c] = newTracer(c)
	}
	traced := w.replayLoop(rc, seed, phase, tracers)

	t := mergeTracers(tracers)
	layers := t.layers()
	n := float64(len(server.outs))
	checkMS := mean(server.latencies())
	layers["smvd.check_ms"] = checkMS
	layers["smvd.overhead_ms"] = checkMS - t.sessionMS()
	layers["smvd.session_hit_ratio"] = ratio(float64(server.cache.Hits), float64(server.cache.Hits+server.cache.Misses))
	layers["smvd.disk_warm_starts"] = float64(server.cache.DiskWarmStarts) / n
	layers["smvd.evictions"] = float64(server.cache.EvictionsLRU) / n
	fmt.Printf("  server phase: %d requests, Server.Check %.4f ms mean, %.4f ms of it in the session's calls\n",
		len(server.outs), checkMS, t.sessionMS())
	setOverhead(layers, plain, traced)
	return tracedRun{layers: layers, phases: []loopResult{server, plain, traced}, tracers: tracers}, nil
}

// newReplay builds replay state in the cache state the server's phase
// started in: for warm, every pool session open and pre-warmed the same
// way; for churn, no session open, over a copy of the seeded records.
func (w *serveRun) newReplay(seed int64, dir string) (*replayCache, error) {
	if w.churn {
		store, err := smvd.OpenDiskStore(dir)
		if err != nil {
			return nil, err
		}
		return &replayCache{capacity: churnCapacity, store: store, dir: dir}, nil
	}
	rc := &replayCache{capacity: len(w.pool)}
	return rc, w.prewarm(seed, func(r serveReq) outcome { return w.replay(rc, r, nil) })
}

func (w *serveRun) replayLoop(rc *replayCache, seed int64, dur time.Duration, tracers []*tracer) loopResult {
	streams := w.streams(seed)
	return closedLoop(w.clients(), dur, func(c int) (outcome, bool) {
		var t *tracer
		if tracers != nil {
			t = tracers[c]
		}
		return w.replay(rc, streams[c].next(), t), true
	})
}

// replay is one request on benchmark-held state, through the calls a
// session makes: the model key; on a miss parse, compile and the record
// load, plus a record save per eviction; then per spec the parse, the
// check, the counterexample, its validation and its text.
func (w *serveRun) replay(rc *replayCache, r serveReq, t *tracer) outcome {
	p := &w.pool[r.model]
	out := outcome{model: r.model}
	t0 := time.Now()
	root := t.begin("request", -1)
	s, opened, err := rc.get(p.src, t, root)
	if err != nil {
		out.fail(p.name, len(r.specs), err)
	} else {
		s.mu.Lock()
		var before snapshot
		if t != nil && !opened {
			before = s.snapshot()
		}
		for _, i := range r.specs {
			out.record(p.name+": "+p.specs[i], p.want[i], s.checkCTL(spec{text: p.specs[i]}, t, root))
		}
		t.noteRequest(s.model, before)
		out.peakNodes = s.peak()
		s.mu.Unlock()
	}
	t.end(root)
	out.ms = ms(time.Since(t0))
	t.finish()
	return out
}

// replayCache stands in for smvd.Cache in the traced run: an LRU of
// sessions that open on a miss by parse, compile and a record load, and
// save their record on eviction. Holding this state in the benchmark
// lets it time each call a session makes.
type replayCache struct {
	capacity int
	store    *smvd.DiskStore // nil: no records; sessions run their fixpoints
	dir      string
	mu       sync.Mutex
	lru      []*replaySession // most recently used first
}

// replaySession is the benchmark's stand-in for an smvd session.
type replaySession struct {
	mu  sync.Mutex // one query at a time, like a session's lock
	key string
	*model
}

// get returns the session for src, opening it on a miss and saving the
// records of the sessions that fall out of the LRU; the bool reports a
// miss. The cache lock is held throughout: warm replays never miss, and
// churn has one client.
func (rc *replayCache) get(src string, t *tracer, parent int) (*replaySession, bool, error) {
	var key string
	t.call("smvd.key", parent, func() { key = smvd.ModelKey(src, smvd.Config{}) })
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, s := range rc.lru {
		if s.key == key {
			copy(rc.lru[1:i+1], rc.lru[:i])
			rc.lru[0] = s
			return s, false, nil
		}
	}
	s, err := rc.open(key, src, t, parent)
	if err != nil {
		return nil, false, err
	}
	rc.lru = append([]*replaySession{s}, rc.lru...)
	for len(rc.lru) > rc.capacity {
		victim := rc.lru[len(rc.lru)-1]
		rc.lru = rc.lru[:len(rc.lru)-1]
		if err := rc.evict(victim, t, parent); err != nil {
			return nil, false, err
		}
	}
	return s, true, nil
}

func (rc *replayCache) open(key, src string, t *tracer, parent int) (*replaySession, error) {
	var module *smv.Module
	var err error
	t.call("smv.parse", parent, func() { module, err = smv.ParseModule(src) })
	if err != nil {
		return nil, err
	}
	var m *model
	t.call("smv.compile", parent, func() { m, err = compileModel(module, smvd.Config{}) })
	if err != nil {
		return nil, err
	}
	t.noteCompile(m)
	if rc.store != nil {
		var warm bool
		t.call("smvd.record_load", parent, func() { warm, err = m.warmStart(rc.store, key) })
		if err != nil {
			return nil, err
		}
		if warm {
			t.noteRecord(rc.dir, key)
			return &replaySession{key: key, model: m}, nil
		}
	}
	m.ready(t, parent)
	return &replaySession{key: key, model: m}, nil
}

func (rc *replayCache) evict(s *replaySession, t *tracer, parent int) error {
	if rc.store == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	t.call("smvd.record_save", parent, func() { err = s.save(rc.store, s.key) })
	if err == nil {
		t.noteRecord(rc.dir, s.key)
	}
	return err
}

func (w *serveRun) close() {
	w.sv = nil
	if w.dir != "" {
		removeDir(w.dir)
		w.dir = ""
	}
}

// copyRecords copies a record directory's committed files into a fresh
// directory under workdir.
func copyRecords(from, workdir string) (string, error) {
	to, err := os.MkdirTemp(workdir, "replay-")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".") {
			continue // temporaries of an unfinished write
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return to, nil
}

// removeDir deletes a record directory. An eviction flush that the
// server runs in the background may still be renaming a file into it, so
// a failed attempt is retried for a while.
func removeDir(dir string) {
	var err error
	for range 40 {
		if err = os.RemoveAll(dir); err == nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	complain("removing %s: %v", dir, err)
}
