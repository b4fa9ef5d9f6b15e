package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/smvd"
)

// outcome is what one request did.
type outcome struct {
	model       int           // corpus or pool index
	at          time.Duration // completion time since the phase started
	ms          float64       // latency
	specs       int
	failed      int // errors, wrong verdicts and invalid traces
	wrong       int // wrong verdicts
	traces      int
	traceStates int
	peakNodes   int // live nodes: the maximum over the managers it used

	// Traced cold and parallel requests: core.witness self time and its
	// denominator, reachability + fair set + CTL fixpoints.
	witness, basis time.Duration
}

// specResult is one spec's answer.
type specResult struct {
	holds  bool
	states int   // counterexample length; 0 when the spec holds
	err    error // check, witness, validation or replay failure
}

// record scores one spec against its known answer.
func (o *outcome) record(what string, want bool, r specResult) {
	o.specs++
	switch {
	case r.err != nil:
		o.failed++
		complain("%s: %v", what, r.err)
	case r.holds != want:
		o.failed++
		o.wrong++
		complain("%s: holds=%v, the known answer is %v", what, r.holds, want)
	case !r.holds:
		o.traces++
		o.traceStates += r.states
	}
}

// fail counts specs that could not be checked at all.
func (o *outcome) fail(what string, specs int, err error) {
	o.specs += specs
	o.failed += specs
	complain("%s: %v", what, err)
}

var complaints atomic.Int32

// complain reports a failure on standard error; past the first twenty
// only the counts in the summary tell.
func complain(format string, args ...any) {
	if complaints.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// loopResult is one timed phase.
type loopResult struct {
	outs    []outcome
	elapsed time.Duration
	cpu     time.Duration
	peak    int             // live nodes sampled outside the requests
	cache   smvd.CacheStats // smvd workloads: session-cache counter deltas
}

// total sums the phase's outcomes; peakNodes is the maximum.
func (r loopResult) total() outcome {
	t := outcome{peakNodes: r.peak}
	for _, o := range r.outs {
		t.specs += o.specs
		t.failed += o.failed
		t.wrong += o.wrong
		t.traces += o.traces
		t.traceStates += o.traceStates
		t.peakNodes = max(t.peakNodes, o.peakNodes)
	}
	return t
}

// latencies returns the request latencies in ascending order.
func (r loopResult) latencies() []float64 {
	xs := make([]float64, len(r.outs))
	for i, o := range r.outs {
		xs[i] = o.ms
	}
	sort.Float64s(xs)
	return xs
}

func (r loopResult) perSecond() float64 {
	return ratio(float64(len(r.outs)), r.elapsed.Seconds())
}

func (r loopResult) cpuPerRequest() float64 {
	return ratio(ms(r.cpu), float64(len(r.outs)))
}

// halves returns the request rate in the first and in the second half
// of the phase: the check that timing started in the steady state.
func (r loopResult) halves() (first, second float64) {
	mid := r.elapsed / 2
	var a, b int
	for _, o := range r.outs {
		if o.at <= mid {
			a++
		} else {
			b++
		}
	}
	return ratio(float64(a), mid.Seconds()), ratio(float64(b), (r.elapsed - mid).Seconds())
}

// maxPhase caps a phase that cannot reach minSamplesP95 requests in
// time, so that a run still ends within its time limit.
func maxPhase(dur time.Duration) time.Duration { return 2*dur + 20*time.Second }

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one returned, the way `smv` callers and smvd
// clients wait for their reply. A client stops at the first boundary of
// its request sequence once dur has passed and the phase holds at least
// minSamplesP95 requests, or once maxPhase(dur) has passed.
func closedLoop(clients int, dur time.Duration, do func(client int) (outcome, bool)) loopResult {
	per := make([][]outcome, clients)
	var done atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				out, boundary := do(c)
				out.at = time.Since(start)
				per[c] = append(per[c], out)
				n := done.Add(1)
				if out.at >= maxPhase(dur) || boundary && out.at >= dur && n >= minSamplesP95 {
					return
				}
			}
		}()
	}
	wg.Wait()
	r := loopResult{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, outs := range per {
		r.outs = append(r.outs, outs...)
	}
	return r
}

// streamSeed derives a client's generator seed from the run's seed.
func streamSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client) }
