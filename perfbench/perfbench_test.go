package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/smvd"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 100}, {0.95, 190}, {1, 200}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestP95NeedsTwoHundredSamples(t *testing.T) {
	if got := samplesBeyond(200, 0.95); got != 10 {
		t.Errorf("200 samples: %d beyond p95, want 10", got)
	}
	if got := samplesBeyond(199, 0.95); got != 9 {
		t.Errorf("199 samples: %d beyond p95, want 9", got)
	}
	for n := 0; n <= 2000; n++ {
		if enough := samplesBeyond(n, 0.95) >= 10; enough != (n >= minSamplesP95) {
			t.Fatalf("%d samples: %d beyond p95, but minSamplesP95 is %d", n, samplesBeyond(n, 0.95), minSamplesP95)
		}
	}
}

func TestCacheHitRatioBases(t *testing.T) {
	// AndExists hits are in CacheHits but its lookups are not in
	// CacheLookups: CacheHits/CacheLookups would read 1.4 here.
	ite, aex := cacheHitRatios(bdd.Stats{CacheLookups: 10, CacheHits: 14, AndExistsLookups: 20, AndExistsHits: 8})
	if ite != 0.6 || aex != 0.4 {
		t.Errorf("ratios = %v, %v, want 0.6, 0.4", ite, aex)
	}

	// Counters from real relational products stay within [0,1].
	m := bdd.New(12)
	var fs []bdd.Ref
	for i := 0; i < 12; i++ {
		fs = append(fs, m.Or(m.And(m.Var(i), m.Var((i+1)%12)), m.Not(m.Var((i+5)%12))))
	}
	cube := m.Cube([]int{0, 2, 4, 6, 8, 10})
	for range 3 {
		for _, f := range fs {
			for _, g := range fs {
				m.AndExists(f, g, cube)
			}
		}
	}
	if m.Stats.AndExistsHits == 0 {
		t.Fatal("no AndExists cache hits: the check below would be vacuous")
	}
	ite, aex = cacheHitRatios(m.Stats)
	if ite < 0 || ite > 1 || aex < 0 || aex > 1 {
		t.Errorf("ratios %v, %v outside [0,1] (stats %+v)", ite, aex, m.Stats)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 50},
		{name: "b", parent: 0, start: 30, end: 70},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // outlives its parent
		{name: "d", parent: 1, start: 20, end: 25},
	}
	want := []time.Duration{30, 35, 40, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	pool := []poolModel{
		{name: "a", specs: []string{"p", "q", "r"}, want: []bool{true, false, true}, fails: []int{1}},
		{name: "b", specs: []string{"s", "t"}, want: []bool{false, false}, fails: []int{0, 1}},
	}
	draw := func(seed int64, client int) []serveReq {
		s := newServeStream(seed, client, pool)
		out := make([]serveReq, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a := draw(7, 0)
	if !reflect.DeepEqual(a, draw(7, 0)) {
		t.Fatal("the same seed gave two request sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0)) || reflect.DeepEqual(a, draw(7, 1)) {
		t.Fatal("another seed or client gave the same request sequence")
	}
	for _, r := range a {
		failing := false
		for _, i := range r.specs {
			failing = failing || !pool[r.model].want[i]
		}
		if !failing {
			t.Fatalf("request %+v asks for no failing spec", r)
		}
	}

	c1, c2 := newCorpusStream(7, 0, 15), newCorpusStream(7, 0, 15)
	for pass := 0; pass < 5; pass++ {
		seen := map[int]bool{}
		for i := 0; i < 15; i++ {
			x := c1.next()
			if y := c2.next(); x != y {
				t.Fatalf("pass %d, request %d: %d vs %d from the same seed", pass, i, x, y)
			}
			seen[x] = true
			if c1.atBoundary() != (i == 14) {
				t.Fatalf("pass %d, request %d: boundary %v", pass, i, c1.atBoundary())
			}
		}
		if len(seen) != 15 {
			t.Fatalf("pass %d requests %d distinct models, want 15", pass, len(seen))
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []def
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEndMetrics}, {"per_layer", b.PerLayer, layerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.got[i] != (def{d.name, d.unit}) {
				t.Errorf("%s[%d] = %+v, the benchmark reports %s in %s", c.kind, i, c.got[i], d.name, d.unit)
			}
		}
	}
}

// TestCorpusKnownAnswers takes every cold-corpus model through the
// pipeline untraced and traced: every verdict must match the known
// answers, and the traced pass must see every layer it reports.
func TestCorpusKnownAnswers(t *testing.T) {
	corpus, err := loadCorpus("..", false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(0)
	for i := range corpus {
		e := &corpus[i]
		if out := e.check(nil, -1); out.failed > 0 {
			t.Errorf("%s untraced: %d of %d specs failed", e.name, out.failed, out.specs)
		}
		root := tr.begin("request", -1)
		out := e.check(tr, root)
		tr.end(root)
		tr.finish()
		if out.failed > 0 {
			t.Errorf("%s traced: %d of %d specs failed", e.name, out.failed, out.specs)
		}
	}
	for _, name := range []string{"smv.parse", "smv.compile", "kripke.reach", "mc.fair", "ctl.parse", "mc.check",
		"core.witness", "core.validate", "smv.format", "ltl.compile", "ltl.check", "ltl.replay"} {
		if tr.calls[name] == 0 {
			t.Errorf("no %s span", name)
		}
	}
	layers := tr.layers()
	if layers["core.witness_over_check"] <= 0 || layers["bdd.auto_reorders"] <= 0 {
		t.Errorf("witness_over_check %v, auto_reorders %v: want both above 0",
			layers["core.witness_over_check"], layers["bdd.auto_reorders"])
	}
	for _, name := range []string{"bdd.ite_hit_ratio", "bdd.andexists_hit_ratio"} {
		if r := layers[name]; r <= 0 || r > 1 {
			t.Errorf("%s = %v, want within (0,1]", name, r)
		}
	}
}

// TestPoolKnownAnswers sends every pool model all of its specs through
// Server.Check and through the replay; both must match the known answers.
func TestPoolKnownAnswers(t *testing.T) {
	pool, err := loadPool("..")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := smvd.NewCache(len(pool), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	w := &serveRun{pool: pool}
	sv := smvd.NewServer(cache)
	rc := &replayCache{capacity: len(pool)}
	for i := range pool {
		r := allSpecs(pool, i)
		if out := w.serve(sv, r); out.failed > 0 || out.traces == 0 {
			t.Errorf("server, %s: %d of %d specs failed, %d traces", pool[i].name, out.failed, out.specs, out.traces)
		}
		if out := w.replay(rc, r, nil); out.failed > 0 || out.traces == 0 {
			t.Errorf("replay, %s: %d of %d specs failed, %d traces", pool[i].name, out.failed, out.specs, out.traces)
		}
	}
}

// TestChurnReplayStartsFromRecords replays cyclic requests through a
// cache smaller than the pool: every request misses, and every miss must
// be a warm start from the records the server wrote, with no
// reachability run, while evictions write records back.
func TestChurnReplayStartsFromRecords(t *testing.T) {
	pool, err := loadPool("..")
	if err != nil {
		t.Fatal(err)
	}
	pool = pool[arbiterCopies-1:] // one arbiter and the shipped models
	dir := t.TempDir()
	seeder, err := smvd.NewCache(len(pool), 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	w := &serveRun{pool: pool}
	sv := smvd.NewServer(seeder)
	for i := range pool {
		if out := w.serve(sv, allSpecs(pool, i)); out.failed > 0 {
			t.Fatalf("seeding %s: %d specs failed", pool[i].name, out.failed)
		}
	}
	if err := seeder.FlushAll(); err != nil {
		t.Fatal(err)
	}
	store, err := smvd.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc := &replayCache{capacity: 2, store: store, dir: dir}
	tr := newTracer(0)
	for round := 0; round < 2; round++ {
		for i := range pool {
			if out := w.replay(rc, allSpecs(pool, i), tr); out.failed > 0 {
				t.Errorf("replay, %s: %d of %d specs failed", pool[i].name, out.failed, out.specs)
			}
		}
	}
	if got, want := tr.calls["smvd.record_load"], 2*len(pool); got != want {
		t.Errorf("%d record loads, want %d", got, want)
	}
	if n := tr.calls["kripke.reach"]; n != 0 {
		t.Errorf("warm starts ran reachability %d times", n)
	}
	if tr.calls["smvd.record_save"] == 0 || tr.counts.recordBytes == 0 {
		t.Errorf("%d record saves, %d record bytes: want both above 0", tr.calls["smvd.record_save"], tr.counts.recordBytes)
	}
}
