package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/mc"
)

// Tracing. Spans are recorded only here in the benchmark, around calls
// into each module's public functions, and counters are read at the same
// boundaries. A nil *tracer records nothing, so the untraced and the
// traced runs execute the same code.

// maxKeptSpans bounds the spans one tracer keeps for the dump.
const maxKeptSpans = 20000

// span is one timed call. Spans of one request share req; parent indexes
// the enclosing span within the request, or is -1 for the request's
// root.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer records the spans and counters of one client.
type tracer struct {
	client int
	epoch  time.Time
	reqs   int    // requests finished
	cur    []span // spans of the request in flight
	kept   []span // finished spans, written out when the run ends
	self   map[string]time.Duration
	calls  map[string]int
	counts counters
}

func newTracer(client int) *tracer {
	return &tracer{client: client, epoch: time.Now(), self: map[string]time.Duration{}, calls: map[string]int{}}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.cur = append(t.cur, span{name: name, req: t.reqs, parent: parent, start: time.Since(t.epoch)})
	return len(t.cur) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.cur[id].end = time.Since(t.epoch)
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// finish closes the request in flight: each span's self time is added to
// its name's total, and the request's self time per name is returned
// (nil without a tracer).
func (t *tracer) finish() map[string]time.Duration {
	if t == nil {
		return nil
	}
	self := selfTimes(t.cur)
	per := make(map[string]time.Duration, len(t.cur))
	for i, s := range t.cur {
		per[s.name] += self[i]
		t.self[s.name] += self[i]
		t.calls[s.name]++
	}
	if room := maxKeptSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, t.cur[:min(room, len(t.cur))]...)
	}
	t.cur = t.cur[:0]
	t.reqs++
	return per
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children that overlap each other are counted
// once, and only inside the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(p span, spans []span, kids []int) time.Duration {
	type interval struct{ lo, hi time.Duration }
	var iv []interval
	for _, k := range kids {
		lo, hi := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if lo < hi {
			iv = append(iv, interval{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
		} else if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// counters are module counters summed over a phase's requests: the
// deltas a request moved on its model's manager, structure, checker and
// generator, plus figures read right after a compile, a reachability
// run, an LTL product or a warm-start record.
type counters struct {
	bdd bdd.Stats
	rel kripke.RelStats // PreimageCalls and ClusterSteps; PeakLiveNodes is a maximum
	mc  mc.Stats
	gen core.GenStats

	compiles, compiledNodes, clusters int
	reachIters                        int
	reachImages                       uint64
	loadSum                           float64 // unique-table load factor at each request's end
	loads                             int
	ctlTraces, ctlTraceStates         int
	ltlProducts, tableauVars, ltlPeak int
	recordOps                         int
	recordBytes                       int64
}

// snapshot holds a model's cumulative counters at one boundary.
type snapshot struct {
	bdd bdd.Stats
	rel kripke.RelStats
	mc  mc.Stats
	gen core.GenStats
}

func (c *counters) addBDD(before, after bdd.Stats) {
	c.bdd.ITECalls += after.ITECalls - before.ITECalls
	c.bdd.CacheLookups += after.CacheLookups - before.CacheLookups
	c.bdd.CacheHits += after.CacheHits - before.CacheHits
	c.bdd.AndExistsCalls += after.AndExistsCalls - before.AndExistsCalls
	c.bdd.AndExistsLookups += after.AndExistsLookups - before.AndExistsLookups
	c.bdd.AndExistsHits += after.AndExistsHits - before.AndExistsHits
	c.bdd.GCRuns += after.GCRuns - before.GCRuns
	c.bdd.NodesFreed += after.NodesFreed - before.NodesFreed
	c.bdd.CacheGrowths += after.CacheGrowths - before.CacheGrowths
	c.bdd.AutoReorders += after.AutoReorders - before.AutoReorders
	c.bdd.SiftSwaps += after.SiftSwaps - before.SiftSwaps
	c.bdd.ReorderTime += after.ReorderTime - before.ReorderTime
	c.bdd.ParallelSections += after.ParallelSections - before.ParallelSections
	c.bdd.ParallelForks += after.ParallelForks - before.ParallelForks
	c.bdd.ParallelRetries += after.ParallelRetries - before.ParallelRetries
}

func (c *counters) addModel(before, after snapshot) {
	c.addBDD(before.bdd, after.bdd)
	c.rel.PreimageCalls += after.rel.PreimageCalls - before.rel.PreimageCalls
	c.rel.ClusterSteps += after.rel.ClusterSteps - before.rel.ClusterSteps
	c.rel.PeakLiveNodes = max(c.rel.PeakLiveNodes, after.rel.PeakLiveNodes)
	c.mc.EUIterations += after.mc.EUIterations - before.mc.EUIterations
	c.mc.EGIterations += after.mc.EGIterations - before.mc.EGIterations
	c.mc.FairEGOuter += after.mc.FairEGOuter - before.mc.FairEGOuter
	c.mc.MemoHits += after.mc.MemoHits - before.mc.MemoHits
	c.gen.RingSteps += after.gen.RingSteps - before.gen.RingSteps
	c.gen.Restarts += after.gen.Restarts - before.gen.Restarts
	c.gen.ClosureAttempts += after.gen.ClosureAttempts - before.gen.ClosureAttempts
	c.gen.EarlyExits += after.gen.EarlyExits - before.gen.EarlyExits
	c.gen.ImageCalls += after.gen.ImageCalls - before.gen.ImageCalls
}

// merge adds another client's counters.
func (c *counters) merge(o *counters) {
	c.addModel(snapshot{}, snapshot{bdd: o.bdd, rel: o.rel, mc: o.mc, gen: o.gen})
	c.compiles += o.compiles
	c.compiledNodes += o.compiledNodes
	c.clusters += o.clusters
	c.reachIters += o.reachIters
	c.reachImages += o.reachImages
	c.loadSum += o.loadSum
	c.loads += o.loads
	c.ctlTraces += o.ctlTraces
	c.ctlTraceStates += o.ctlTraceStates
	c.ltlProducts += o.ltlProducts
	c.tableauVars += o.tableauVars
	c.ltlPeak = max(c.ltlPeak, o.ltlPeak)
	c.recordOps += o.recordOps
	c.recordBytes += o.recordBytes
}

// noteCompile records the size of a freshly compiled model.
func (t *tracer) noteCompile(m *model) {
	if t == nil {
		return
	}
	t.counts.compiles++
	t.counts.compiledNodes += m.c.S.M.NumNodes()
	t.counts.clusters += m.c.S.NumClusters()
}

// noteRequest adds the counters a request moved on its model, from
// before (zero for a model the request created) to now.
func (t *tracer) noteRequest(m *model, before snapshot) {
	if t == nil {
		return
	}
	t.counts.addModel(before, m.snapshot())
	t.counts.loadSum += m.c.S.M.UniqueTableLoadFactor()
	t.counts.loads++
}

// noteRecord counts one warm-start record read or written, with its size
// on disk: smvd keeps a record as <key>.bdd plus <key>.json.
func (t *tracer) noteRecord(dir, key string) {
	if t == nil {
		return
	}
	t.counts.recordOps++
	for _, ext := range []string{".bdd", ".json"} {
		if fi, err := os.Stat(filepath.Join(dir, key+ext)); err == nil {
			t.counts.recordBytes += fi.Size()
		}
	}
}

// mergeTracers sums the totals of several clients' tracers.
func mergeTracers(ts []*tracer) *tracer {
	out := newTracer(-1)
	for _, t := range ts {
		out.reqs += t.reqs
		for name, d := range t.self {
			out.self[name] += d
		}
		for name, n := range t.calls {
			out.calls[name] += n
		}
		out.counts.merge(&t.counts)
	}
	return out
}

// layers computes the per-layer metrics from the spans and counters:
// times are span self time per request, counts are per request, peaks
// are maxima and ratios divide totals. The workload fills in the
// server-side smvd figures and the tracing overhead.
func (t *tracer) layers() map[string]float64 {
	n := float64(max(t.reqs, 1))
	per := func(v float64) float64 { return v / n }
	self := func(name string) float64 { return per(ms(t.self[name])) }
	c := &t.counts
	ite, aex := cacheHitRatios(c.bdd)
	basis := self("kripke.reach") + self("mc.fair") + self("mc.check")
	return map[string]float64{
		"smv.parse_ms":       self("smv.parse"),
		"smv.compile_ms":     self("smv.compile"),
		"smv.compiled_nodes": ratio(float64(c.compiledNodes), float64(c.compiles)),
		"smv.clusters":       ratio(float64(c.clusters), float64(c.compiles)),

		"kripke.reach_ms":         self("kripke.reach"),
		"kripke.reach_iters":      per(float64(c.reachIters)),
		"kripke.image_calls":      per(float64(c.reachImages)),
		"kripke.preimage_calls":   per(float64(c.rel.PreimageCalls)),
		"kripke.cluster_steps":    per(float64(c.rel.ClusterSteps)),
		"kripke.peak_chain_nodes": float64(c.rel.PeakLiveNodes),

		"mc.fair_ms":       self("mc.fair"),
		"mc.check_ms":      self("mc.check"),
		"mc.eu_iters":      per(float64(c.mc.EUIterations)),
		"mc.eg_iters":      per(float64(c.mc.EGIterations)),
		"mc.fair_eg_outer": per(float64(c.mc.FairEGOuter)),
		"mc.memo_hits":     per(float64(c.mc.MemoHits)),

		"core.witness_ms":         self("core.witness"),
		"core.validate_ms":        self("core.validate"),
		"core.ring_steps":         per(float64(c.gen.RingSteps)),
		"core.restarts":           per(float64(c.gen.Restarts)),
		"core.closure_attempts":   per(float64(c.gen.ClosureAttempts)),
		"core.early_exits":        per(float64(c.gen.EarlyExits)),
		"core.single_images":      per(float64(c.gen.ImageCalls)),
		"core.trace_states":       ratio(float64(c.ctlTraceStates), float64(c.ctlTraces)),
		"core.witness_over_check": ratio(self("core.witness"), basis),

		"ltl.compile_ms":   self("ltl.compile"),
		"ltl.check_ms":     self("ltl.check"),
		"ltl.replay_ms":    self("ltl.replay"),
		"ltl.tableau_vars": ratio(float64(c.tableauVars), float64(c.ltlProducts)),
		"ltl.peak_nodes":   float64(c.ltlPeak),

		"bdd.ite_calls":           per(float64(c.bdd.ITECalls)),
		"bdd.ite_hit_ratio":       ite,
		"bdd.andexists_calls":     per(float64(c.bdd.AndExistsCalls)),
		"bdd.andexists_hit_ratio": aex,
		"bdd.gc_runs":             per(float64(c.bdd.GCRuns)),
		"bdd.nodes_freed":         per(float64(c.bdd.NodesFreed)),
		"bdd.cache_growths":       per(float64(c.bdd.CacheGrowths)),
		"bdd.unique_load":         ratio(c.loadSum, float64(c.loads)),
		"bdd.sift_ms":             per(ms(c.bdd.ReorderTime)),
		"bdd.auto_reorders":       per(float64(c.bdd.AutoReorders)),
		"bdd.sift_swaps":          per(float64(c.bdd.SiftSwaps)),
		"bdd.par_sections":        per(float64(c.bdd.ParallelSections)),
		"bdd.par_forks":           per(float64(c.bdd.ParallelForks)),
		"bdd.par_retries":         per(float64(c.bdd.ParallelRetries)),

		"smvd.record_load_ms": self("smvd.record_load"),
		"smvd.record_save_ms": self("smvd.record_save"),
		"smvd.record_bytes":   ratio(float64(c.recordBytes), float64(c.recordOps)),
	}
}

// sessionMS is the self time per request of the calls an smvd session
// makes: every span except the benchmark's request and spec containers
// and the record saves, which the server runs off the request path.
func (t *tracer) sessionMS() float64 {
	var total time.Duration
	for name, d := range t.self {
		switch name {
		case "request", "spec", "smvd.record_save":
		default:
			total += d
		}
	}
	return ms(total) / float64(max(t.reqs, 1))
}

// printSpans prints each span name's call count and self time per
// request.
func (t *tracer) printSpans() {
	names := make([]string, 0, len(t.self))
	for name := range t.self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  %-20s %9s %14s\n", "span", "calls", "self_ms/req")
	for _, name := range names {
		fmt.Printf("  %-20s %9d %14.4f\n", name, t.calls[name], ms(t.self[name])/float64(max(t.reqs, 1)))
	}
}

// setOverhead records the tracing overhead, the traced phase minus an
// untraced run of the same code, and prints both phases.
func setOverhead(layers map[string]float64, plain, traced loopResult) {
	pl, tl := plain.latencies(), traced.latencies()
	layers["trace.overhead_ms_p50"] = percentile(tl, 0.5) - percentile(pl, 0.5)
	layers["trace.overhead_cpu_ms"] = traced.cpuPerRequest() - plain.cpuPerRequest()
	fmt.Printf("  %-10s %9s %10s %10s %10s %12s\n", "phase", "requests", "req/s", "ms_p50", "ms_p95", "cpu_ms/req")
	for _, x := range []struct {
		name string
		r    loopResult
		lat  []float64
	}{{"untraced", plain, pl}, {"traced", traced, tl}} {
		fmt.Printf("  %-10s %9d %10.2f %10.4f %10.4f %12.4f\n", x.name, len(x.r.outs), x.r.perSecond(),
			percentile(x.lat, 0.5), percentile(x.lat, 0.95), x.r.cpuPerRequest())
	}
}

// spanRecord is one line of the span dump.
type spanRecord struct {
	Client  int    `json:"client"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// writeSpans dumps the kept spans of every tracer as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range ts {
		for _, s := range t.kept {
			rec := spanRecord{Client: t.client, Req: s.req, Name: s.name, Parent: s.parent,
				StartUS: s.start.Microseconds(), EndUS: s.end.Microseconds()}
			if err := enc.Encode(&rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
