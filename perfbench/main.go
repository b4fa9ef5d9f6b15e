// Command perfbench is the repository's benchmark. It drives the smv
// checking path and the smvd session server in-process on one of four
// seeded workloads, checks every verdict and trace against known
// answers, and prints its metrics: the end-to-end ones, or with
// --trace 1 the per-layer ones, taken from spans the benchmark records
// around each layer's public calls. The last line of standard output is
// one JSON object; the lines before it show the same run for people.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads and the metrics, and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median.
const setupRepeats = 3

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the --trace 0 metrics, as BENCHMARK.json lists
// them. spec_ok_frac is 1 - error_frac: a metric's bound is a share of
// its median, and error_frac's median is 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"request_ms_p50", "ms"},
	{"request_ms_p95", "ms"},
	{"spec_ok_frac", "frac"},
	{"peak_live_nodes", "nodes"},
	{"peak_rss_mb", "MiB"},
	{"cpu_ms_per_request", "ms"},
	{"mean_trace_states", "states"},
}

// layerMetrics are the --trace 1 metrics, as BENCHMARK.json lists them.
var layerMetrics = []metricDef{
	{"smv.parse_ms", "ms/req"},
	{"smv.compile_ms", "ms/req"},
	{"smv.compiled_nodes", "nodes"},
	{"smv.clusters", "count"},
	{"kripke.reach_ms", "ms/req"},
	{"kripke.reach_iters", "count/req"},
	{"kripke.image_calls", "count/req"},
	{"kripke.preimage_calls", "count/req"},
	{"kripke.cluster_steps", "count/req"},
	{"kripke.peak_chain_nodes", "nodes"},
	{"mc.fair_ms", "ms/req"},
	{"mc.check_ms", "ms/req"},
	{"mc.eu_iters", "count/req"},
	{"mc.eg_iters", "count/req"},
	{"mc.fair_eg_outer", "count/req"},
	{"mc.memo_hits", "count/req"},
	{"core.witness_ms", "ms/req"},
	{"core.validate_ms", "ms/req"},
	{"core.ring_steps", "count/req"},
	{"core.restarts", "count/req"},
	{"core.closure_attempts", "count/req"},
	{"core.early_exits", "count/req"},
	{"core.single_images", "count/req"},
	{"core.trace_states", "states"},
	{"core.witness_over_check", "ratio"},
	{"ltl.compile_ms", "ms/req"},
	{"ltl.check_ms", "ms/req"},
	{"ltl.replay_ms", "ms/req"},
	{"ltl.tableau_vars", "vars"},
	{"ltl.peak_nodes", "nodes"},
	{"bdd.ite_calls", "count/req"},
	{"bdd.ite_hit_ratio", "ratio"},
	{"bdd.andexists_calls", "count/req"},
	{"bdd.andexists_hit_ratio", "ratio"},
	{"bdd.gc_runs", "count/req"},
	{"bdd.nodes_freed", "count/req"},
	{"bdd.cache_growths", "count/req"},
	{"bdd.unique_load", "ratio"},
	{"bdd.sift_ms", "ms/req"},
	{"bdd.auto_reorders", "count/req"},
	{"bdd.sift_swaps", "count/req"},
	{"bdd.par_sections", "count/req"},
	{"bdd.par_forks", "count/req"},
	{"bdd.par_retries", "count/req"},
	{"smvd.check_ms", "ms/req"},
	{"smvd.overhead_ms", "ms/req"},
	{"smvd.session_hit_ratio", "ratio"},
	{"smvd.record_load_ms", "ms/req"},
	{"smvd.record_save_ms", "ms/req"},
	{"smvd.record_bytes", "bytes"},
	{"smvd.disk_warm_starts", "count/req"},
	{"smvd.evictions", "count/req"},
	{"trace.overhead_ms_p50", "ms"},
	{"trace.overhead_cpu_ms", "ms/req"},
}

// workload is one traffic mix.
type workload interface {
	// setup builds the run's state; close has dropped any earlier state.
	setup(seed int64) error
	// measure runs the untraced timed phase.
	measure(seed int64, dur time.Duration) loopResult
	// traced splits dur between untraced and traced phases and returns
	// the per-layer metrics.
	traced(seed int64, dur time.Duration) (tracedRun, error)
	close()
}

// tracedRun is what a --trace 1 run measured.
type tracedRun struct {
	layers  map[string]float64
	phases  []loopResult
	tracers []*tracer
}

// metric and result are the JSON object printed as the last line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "cold, warm, churn or parallel")
	seed := flag.Int64("seed", 1, "seed of the generated request sequences")
	seconds := flag.Int("seconds", 10, "length of the timed run in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-work"),
		"directory for warm-start records and span dumps")
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func newWorkload(name, workdir string) (workload, error) {
	switch name {
	case "cold":
		return &corpusRun{}, nil
	case "parallel":
		return &corpusRun{parallel: true}, nil
	case "warm":
		return &serveRun{workdir: workdir}, nil
	case "churn":
		return &serveRun{churn: true, workdir: workdir}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q: want cold, warm, churn or parallel", name)
}

func run(name string, seed int64, seconds, trace int, workdir string) (int, error) {
	if seconds < 1 || trace < 0 || trace > 1 {
		return 2, fmt.Errorf("want --seconds of at least 1 and --trace 0 or 1")
	}
	w, err := newWorkload(name, workdir)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return 1, err
	}
	// Record directories an interrupted run left behind are stale.
	for _, pattern := range []string{"records-*", "replay-*"} {
		stale, _ := filepath.Glob(filepath.Join(workdir, pattern)) // the patterns are well formed
		for _, dir := range stale {
			removeDir(dir)
		}
	}
	defer w.close()

	repeats := setupRepeats
	if trace == 1 {
		repeats = 1 // only untraced runs report setup_s
	}
	var setups []float64
	for range repeats {
		// Dropping and collecting the previous set-up's state first keeps it
		// out of the next set-up's time and of peak_rss_mb.
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Printf("perfbench %s, seed %d, %d s: set-up %.4f s (median of %d)\n", name, seed, seconds, median(setups), len(setups))

	dur := time.Duration(seconds) * time.Second
	var defs []metricDef
	var values map[string]float64
	var outs []outcome
	if trace == 0 {
		r := w.measure(seed, dur)
		defs, values, outs = endToEndMetrics, endToEnd(median(setups), r), r.outs
		printMetrics(defs, values)
		printPhase(r)
	} else {
		tr, err := w.traced(seed, dur)
		if err != nil {
			return 1, err
		}
		defs, values = layerMetrics, tr.layers
		for _, p := range tr.phases {
			outs = append(outs, p.outs...)
		}
		mergeTracers(tr.tracers).printSpans()
		printMetrics(defs, values)
		if err := writeSpans(filepath.Join(workdir, "spans-"+name+".jsonl"), tr.tracers); err != nil {
			return 1, err
		}
	}

	tot := loopResult{outs: outs}.total()
	res := result{Correct: tot.failed == 0, Attempted: tot.specs, Failed: tot.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if tot.wrong > 0 {
		return 1, fmt.Errorf("%d verdicts differ from the known answers", tot.wrong)
	}
	return 0, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(setupS float64, r loopResult) map[string]float64 {
	lat := r.latencies()
	tot := r.total()
	return map[string]float64{
		"setup_s":            setupS,
		"requests_per_s":     r.perSecond(),
		"request_ms_p50":     percentile(lat, 0.50),
		"request_ms_p95":     percentile(lat, 0.95),
		"spec_ok_frac":       1 - ratio(float64(tot.failed), float64(tot.specs)),
		"peak_live_nodes":    float64(tot.peakNodes),
		"peak_rss_mb":        peakRSSMB(),
		"cpu_ms_per_request": r.cpuPerRequest(),
		"mean_trace_states":  ratio(float64(tot.traceStates), float64(tot.traces)),
	}
}

// printMetrics prints one line per metric: name, value and unit.
func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-26s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// printPhase prints what the metrics rest on: error_frac with its
// counts, the sample count, and the request rate in each half of the
// phase, which shows whether timing started in the steady state.
func printPhase(r loopResult) {
	tot := r.total()
	n := len(r.outs)
	fmt.Printf("  %-26s %16.6g frac (%d of %d specs failed)\n", "error_frac",
		ratio(float64(tot.failed), float64(tot.specs)), tot.failed, tot.specs)
	fmt.Printf("  %d requests in %.2f s, %d beyond p95", n, r.elapsed.Seconds(), samplesBeyond(n, 0.95))
	if n < minSamplesP95 {
		fmt.Printf(" (fewer than %d: p95 is not a figure)", minSamplesP95)
	}
	first, second := r.halves()
	fmt.Printf("\n  steady state: %.2f req/s in the first half of the phase, %.2f in the second\n", first, second)
}
