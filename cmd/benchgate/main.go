// Command benchgate compares a freshly recorded BENCH_engine.json
// against a baseline recording and fails (exit 1) when any entry breaks
// the rule of a metric it carries. It is the quality gate behind the CI
// bench-smoke job, whose baseline is the tested commit's first parent
// recorded on the same runner.
//
// Usage:
//
//	benchgate -baseline old/BENCH_engine.json -current BENCH_engine.json
//
// There is one rule per metric kind, fixed in rules below. Node counts,
// lookup counts and cache hit rates are deterministic for a fixed model
// and schedule, so a 25% move is an algorithmic regression, not jitter.
// Wall time on shared runners is noisy, so it fails only past 2x — the
// gate exists to catch algorithmic collapses (an O(two levels) sift
// trial regressing to O(arena)), not percent-level jitter — and only
// over baselines of at least 5 ms, since a ratio over a near-zero
// baseline is all noise. warm_speedup is a same-machine ratio, so
// runner speed cancels out, but it divides by a sub-millisecond warm
// query; its 90% band catches a session cache that stopped reusing its
// sets. A flipped verdict or a build that stopped completing fails
// outright.
//
// The artifact is an array of flat JSON objects. An entry's identity is
// its parameter fields (see identity); everything else is measured.
// Entries present in the baseline but missing from the current run fail
// the gate too: silently dropping a configuration is a coverage
// regression, not a pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// identity names the fields that parameterize an entry rather than
// measure it.
var identity = []string{"model", "image", "reorder", "workload", "kind", "spec", "phase"}

type check int

const (
	above check = iota // fails above baseline × (1 + bound)
	below              // fails below baseline × (1 − bound)
	equal              // fails unless equal to the baseline
)

type rule struct {
	metric string
	check  check
	bound  float64
	floor  float64 // baselines below this are skipped
}

var rules = []rule{
	{metric: "peak_live_nodes", check: above, bound: 0.25},
	{metric: "witness_lookups", check: above, bound: 0.25},
	{metric: "cache_hit_rate", check: below, bound: 0.25},
	{metric: "warm_speedup", check: below, bound: 0.90},
	{metric: "wall_ms", check: above, bound: 1, floor: 5},
	{metric: "reorder_ms", check: above, bound: 1, floor: 5},
	{metric: "holds", check: equal},
	{metric: "completed", check: equal},
}

type entry map[string]any

// key builds the identity string for an entry from its parameter fields.
func key(e entry) string {
	var b strings.Builder
	for _, k := range identity {
		if v, ok := e[k]; ok {
			fmt.Fprintf(&b, "%s=%v|", k, v)
		}
	}
	return b.String()
}

// describe renders the human-readable identity of an entry.
func describe(e entry) string {
	var parts []string
	for _, k := range identity {
		if v, ok := e[k].(string); ok {
			parts = append(parts, v)
		}
	}
	return strings.Join(parts, " ")
}

func load(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return out, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline BENCH_engine.json (the parent, recorded on the same host)")
	currentPath := flag.String("current", "", "freshly recorded BENCH_engine.json")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline old.json -current new.json")
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}
	if failures := gate(os.Stdout, baseline, index(current)); failures > 0 {
		fmt.Printf("\nbenchgate: %d failure%s\n", failures, plural(failures))
		os.Exit(1)
	}
	fmt.Printf("\nbenchgate: %d entries within their rules\n", len(baseline))
}

func index(es []entry) map[string]entry {
	out := make(map[string]entry, len(es))
	for _, e := range es {
		out[key(e)] = e
	}
	return out
}

// gate applies every rule to every baseline entry carrying its metric,
// writes one line per comparison and the worst ratio seen per rule to
// w, and returns the number of failures.
func gate(w io.Writer, baseline []entry, byKey map[string]entry) int {
	failures := 0
	worst := make([]float64, len(rules))
	worstAt := make([]string, len(rules))
	for _, base := range baseline {
		cur, ok := byKey[key(base)]
		if !ok {
			fmt.Fprintf(w, "MISSING  %s — entry absent from current run\n", describe(base))
			failures++
			continue
		}
		for i, r := range rules {
			bv, ok := base[r.metric]
			if !ok {
				continue // the entry does not carry this metric
			}
			cv, ok := cur[r.metric]
			if !ok {
				fmt.Fprintf(w, "MISSING  %s — current entry lost field %q\n", describe(base), r.metric)
				failures++
				continue
			}
			if r.check == equal {
				if bv != cv {
					fmt.Fprintf(w, "FLIPPED  %s — %s %v -> %v\n", describe(base), r.metric, bv, cv)
					failures++
				}
				continue
			}
			b, _ := bv.(float64)
			c, _ := cv.(float64)
			if b <= 0 || b < r.floor {
				fmt.Fprintf(w, "skipped  %s — %s baseline %.3f below the gate floor\n", describe(base), r.metric, b)
				continue
			}
			ratio := c / b
			bad := ratio > 1+r.bound
			if r.check == below {
				ratio = b / max(c, 1e-9) // a drop shows as a ratio above 1
				bad = c < b*(1-r.bound)
			}
			if ratio > worst[i] {
				worst[i], worstAt[i] = ratio, describe(base)
			}
			status := "ok      "
			if bad {
				status = "REGRESS "
				failures++
			}
			fmt.Fprintf(w, "%s %s — %s %.3f -> %.3f\n", status, describe(base), r.metric, b, c)
		}
	}
	fmt.Fprintln(w)
	for i, r := range rules {
		if worstAt[i] != "" {
			fmt.Fprintf(w, "worst %-16s %.2fx  %s\n", r.metric, worst[i], worstAt[i])
		}
	}
	return failures
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
