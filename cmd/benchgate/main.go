// Command benchgate compares a freshly recorded BENCH_*.json artifact
// against the committed baseline and fails (exit 1) when any entry's
// gated metric regressed beyond the allowed percentage. It is the
// quality gate behind the CI bench-smoke job: wall-clock numbers are
// recorded for humans but never gated (shared runners make them noisy);
// peak live BDD nodes are deterministic for a fixed model and schedule,
// so a >25% jump means an algorithmic regression, not jitter.
//
// Usage:
//
//	benchgate -baseline BENCH_disjunctive.json -current new.json \
//	          [-metric peak_live_nodes] [-max-regress 25] \
//	          [-time-metric reorder_ms] [-max-time-regress 100]
//
// -time-metric adds a second, simultaneous gate on a wall-time field.
// Wall time on shared runners is noisy, so its default threshold is a
// generous 2x (-max-time-regress 100) — the gate exists to catch
// algorithmic collapses (an O(two levels) path regressing to O(arena)),
// not percent-level jitter — and baselines under timeGateFloorMS are
// skipped entirely, since a ratio over a near-zero baseline is all
// noise.
//
// -rate-metric adds an inverted gate on a higher-is-better field (e.g.
// cache_hit_rate): the entry fails when the current value DROPS more
// than -max-rate-drop percent below the baseline. Rates are
// deterministic for a fixed model and schedule, like node counts, so a
// large drop means the computed-cache normalization regressed.
//
// The artifact format is an array of flat JSON objects. An entry's
// identity is the concatenation of its string- and bool-valued fields
// plus the numeric field "cells" — which covers every recorder in this
// repo (model/mode/workload/cells/reorder/completed) — and the gated
// metric is any numeric field (default peak_live_nodes).
// Entries present in the baseline but missing from the current run fail
// the gate too: silently dropping a configuration is a coverage
// regression, not a pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// identityNumeric names the numeric fields that parameterize an entry
// rather than measure it.
var identityNumeric = map[string]bool{"cells": true}

type entry map[string]any

// key builds the identity string for an entry: every string and bool
// field plus the allowlisted numeric parameters, in sorted field order.
// The "note" field is excluded: recorders embed measurements in it
// (wall times, node counts at abort), so keying on it would turn every
// timing wobble into a spurious MISSING.
func key(e entry) string {
	fields := make([]string, 0, len(e))
	for k := range e {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	var b strings.Builder
	for _, k := range fields {
		if k == "note" {
			continue
		}
		switch v := e[k].(type) {
		case string:
			fmt.Fprintf(&b, "%s=%s|", k, v)
		case bool:
			fmt.Fprintf(&b, "%s=%v|", k, v)
		case float64:
			if identityNumeric[k] {
				fmt.Fprintf(&b, "%s=%g|", k, v)
			}
		}
	}
	return b.String()
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

// timeGateFloorMS: baselines faster than this are not time-gated; the
// relative error of a couple of milliseconds of scheduler noise would
// dominate any real signal.
const timeGateFloorMS = 5.0

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline BENCH_*.json")
	currentPath := flag.String("current", "", "freshly recorded BENCH_*.json")
	metric := flag.String("metric", "peak_live_nodes", "numeric field to gate on")
	maxRegress := flag.Float64("max-regress", 25, "allowed regression in percent")
	timeMetric := flag.String("time-metric", "", "optional wall-time field for a second gate (e.g. reorder_ms)")
	maxTimeRegress := flag.Float64("max-time-regress", 100, "allowed regression on -time-metric in percent")
	rateMetric := flag.String("rate-metric", "", "optional higher-is-better field for an inverted gate (e.g. cache_hit_rate)")
	maxRateDrop := flag.Float64("max-rate-drop", 25, "allowed drop on -rate-metric in percent")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline old.json -current new.json "+
			"[-metric f] [-max-regress pct] [-time-metric f] [-max-time-regress pct]")
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
	byKey := make(map[string]entry, len(current))
	for _, e := range current {
		byKey[key(e)] = e
	}

	failures := gate(baseline, byKey, *metric, *maxRegress, 0)
	if *timeMetric != "" {
		failures += gate(baseline, byKey, *timeMetric, *maxTimeRegress, timeGateFloorMS)
	}
	if *rateMetric != "" {
		failures += gateRate(baseline, byKey, *rateMetric, *maxRateDrop)
	}
	if failures > 0 {
		fmt.Printf("\nbenchgate: %d entr%s regressed\n", failures, plural(failures))
		os.Exit(1)
	}
	fmt.Printf("\nbenchgate: %d entries within %.0f%% of baseline on %s\n",
		len(baseline), *maxRegress, *metric)
}

// gate compares one numeric field across all baseline entries and
// returns the number of failures. Baseline values below floor are
// skipped (0 = gate everything carrying the field).
func gate(baseline []entry, byKey map[string]entry, metric string, maxRegress, floor float64) int {
	failures := 0
	for _, base := range baseline {
		k := key(base)
		baseVal, ok := base[metric].(float64)
		if !ok {
			continue // entry does not carry the gated metric (e.g. a note-only row)
		}
		cur, ok := byKey[k]
		if !ok {
			fmt.Printf("MISSING  %s — entry absent from current run\n", describe(base))
			failures++
			continue
		}
		if floor > 0 && baseVal < floor {
			fmt.Printf("skipped  %s — %s baseline %.2f below gate floor %.0f\n",
				describe(base), metric, baseVal, floor)
			continue
		}
		curVal, ok := cur[metric].(float64)
		if !ok {
			fmt.Printf("MISSING  %s — current entry lost field %q\n", describe(base), metric)
			failures++
			continue
		}
		limit := baseVal * (1 + maxRegress/100)
		switch {
		case curVal > limit:
			fmt.Printf("REGRESS  %s — %s %.0f -> %.0f (limit %.0f, +%.1f%%)\n",
				describe(base), metric, baseVal, curVal, limit, 100*(curVal-baseVal)/baseVal)
			failures++
		case curVal < baseVal:
			fmt.Printf("improved %s — %s %.0f -> %.0f\n", describe(base), metric, baseVal, curVal)
		default:
			fmt.Printf("ok       %s — %s %.0f -> %.0f\n", describe(base), metric, baseVal, curVal)
		}
	}
	return failures
}

// gateRate is the inverted gate for higher-is-better metrics: the
// entry fails when the current value drops more than maxDrop percent
// below the baseline. Zero baselines are skipped (nothing to preserve);
// a current entry missing the field still fails, as with gate.
func gateRate(baseline []entry, byKey map[string]entry, metric string, maxDrop float64) int {
	failures := 0
	for _, base := range baseline {
		baseVal, ok := base[metric].(float64)
		if !ok {
			continue
		}
		cur, ok := byKey[key(base)]
		if !ok {
			fmt.Printf("MISSING  %s — entry absent from current run\n", describe(base))
			failures++
			continue
		}
		curVal, ok := cur[metric].(float64)
		if !ok {
			fmt.Printf("MISSING  %s — current entry lost field %q\n", describe(base), metric)
			failures++
			continue
		}
		if baseVal <= 0 {
			fmt.Printf("skipped  %s — %s baseline %.3f carries no signal\n", describe(base), metric, baseVal)
			continue
		}
		limit := baseVal * (1 - maxDrop/100)
		switch {
		case curVal < limit:
			fmt.Printf("REGRESS  %s — %s %.3f -> %.3f (limit %.3f, %.1f%% drop)\n",
				describe(base), metric, baseVal, curVal, limit, 100*(baseVal-curVal)/baseVal)
			failures++
		case curVal > baseVal:
			fmt.Printf("improved %s — %s %.3f -> %.3f\n", describe(base), metric, baseVal, curVal)
		default:
			fmt.Printf("ok       %s — %s %.3f -> %.3f\n", describe(base), metric, baseVal, curVal)
		}
	}
	return failures
}

// describe renders the human-readable identity of an entry.
func describe(e entry) string {
	parts := []string{}
	for _, k := range []string{"model", "spec", "mode", "workload", "cells"} {
		switch v := e[k].(type) {
		case string:
			parts = append(parts, v)
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	return strings.Join(parts, " ")
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
