package main

import (
	"strings"
	"testing"
)

func TestKeyIgnoresMeasurements(t *testing.T) {
	a := entry{"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "reach+ex3",
		"peak_live_nodes": 1871.0, "wall_ms": 4.2, "holds": true, "completed": true,
		"note": "monolithic Trans materialized in 0.4ms"}
	b := entry{"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "reach+ex3",
		"peak_live_nodes": 99999.0, "wall_ms": 0.1, "holds": false, "completed": false,
		"note": "monolithic Trans materialized in 0.8ms"}
	if key(a) != key(b) {
		t.Fatalf("measurement fields leaked into identity:\n%s\n%s", key(a), key(b))
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := entry{"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "specs", "kind": "ltl", "spec": "F cs"}
	for name, other := range map[string]entry{
		"model":    {"model": "mutex.smv", "image": "disjunctive", "reorder": "off", "workload": "specs", "kind": "ltl", "spec": "F cs"},
		"image":    {"model": "ring.smv", "image": "conjunctive", "reorder": "off", "workload": "specs", "kind": "ltl", "spec": "F cs"},
		"reorder":  {"model": "ring.smv", "image": "disjunctive", "reorder": "eager", "workload": "specs", "kind": "ltl", "spec": "F cs"},
		"workload": {"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "bfs-10", "kind": "ltl", "spec": "F cs"},
		"kind":     {"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "specs", "kind": "ctl", "spec": "F cs"},
		"spec":     {"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "specs", "kind": "ltl", "spec": "G cs"},
		"phase":    {"model": "ring.smv", "image": "disjunctive", "reorder": "off", "workload": "specs", "kind": "ltl", "spec": "F cs", "phase": "warm_query"},
	} {
		if key(base) == key(other) {
			t.Errorf("%s: identity collision: %s", name, key(base))
		}
	}
}

func TestDescribeSkipsMissingFields(t *testing.T) {
	got := describe(entry{"model": "dining.smv", "image": "monolithic", "workload": "reach+ex3", "wall_ms": 1.5})
	want := "dining.smv monolithic reach+ex3"
	if got != want {
		t.Fatalf("describe = %q, want %q", got, want)
	}
}

// run gates one baseline entry against one current entry (none when
// cur is nil) and returns the failure count and the report.
func run(base, cur entry) (int, string) {
	var b strings.Builder
	byKey := index(nil)
	if cur != nil {
		byKey = index([]entry{cur})
	}
	n := gate(&b, []entry{base}, byKey)
	return n, b.String()
}

func TestGateTimeMetricWithinThreshold(t *testing.T) {
	base := entry{"model": "arbiter", "reorder": "default", "reorder_ms": 100.0}
	cur := entry{"model": "arbiter", "reorder": "default", "reorder_ms": 190.0}
	if n, out := run(base, cur); n != 0 {
		t.Fatalf("1.9x on a 2x threshold failed the gate (%d failures):\n%s", n, out)
	}
}

func TestGateTimeMetricRegression(t *testing.T) {
	base := entry{"model": "arbiter", "reorder": "default", "reorder_ms": 100.0}
	cur := entry{"model": "arbiter", "reorder": "default", "reorder_ms": 201.0}
	if n, out := run(base, cur); n != 1 {
		t.Fatalf("2.01x on a 2x threshold passed the gate (%d failures):\n%s", n, out)
	}
}

func TestGateTimeMetricFloorSkipsNoise(t *testing.T) {
	// A sub-5ms baseline that jumps 50x is scheduler noise, not signal:
	// the floor keeps both time metrics out of the gate.
	for _, metric := range []string{"reorder_ms", "wall_ms"} {
		base := entry{"model": "ring", "reorder": "default", metric: 4.9}
		cur := entry{"model": "ring", "reorder": "default", metric: 245.0}
		if n, out := run(base, cur); n != 0 || !strings.Contains(out, "skipped") {
			t.Fatalf("%s: sub-floor baseline was gated (%d failures):\n%s", metric, n, out)
		}
	}
}

func TestGateMissingEntryStillFails(t *testing.T) {
	base := entry{"model": "arbiter", "reorder": "default", "reorder_ms": 100.0}
	if n, out := run(base, nil); n != 1 || !strings.Contains(out, "absent") {
		t.Fatalf("dropped entry passed the gate (%d failures):\n%s", n, out)
	}
}

func TestGateLostFieldFails(t *testing.T) {
	base := entry{"model": "hanoi-7", "spec": "AG !goal", "peak_live_nodes": 15006.0, "witness_lookups": 299423.0}
	cur := entry{"model": "hanoi-7", "spec": "AG !goal", "peak_live_nodes": 15006.0}
	if n, out := run(base, cur); n != 1 || !strings.Contains(out, `lost field "witness_lookups"`) {
		t.Fatalf("a current entry without its gated field passed (%d failures):\n%s", n, out)
	}
}

func TestGateFlippedVerdictFails(t *testing.T) {
	for _, field := range []string{"holds", "completed"} {
		base := entry{"model": "abp.smv", "spec": "F ack", field: true, "peak_live_nodes": 196.0}
		cur := entry{"model": "abp.smv", "spec": "F ack", field: false, "peak_live_nodes": 196.0}
		n, out := run(base, cur)
		if n != 1 || !strings.Contains(out, "FLIPPED  abp.smv F ack — "+field+" true -> false") {
			t.Fatalf("%s: flipped value not reported as a flip (%d failures):\n%s", field, n, out)
		}
	}
}

// TestGateRules pins each rule's bound just inside and just outside,
// on the smvd rows for the two higher-is-better ratios.
func TestGateRules(t *testing.T) {
	cold := entry{"model": "arbiter-8", "workload": "smvd", "phase": "cold_compile"}
	warm := entry{"model": "arbiter-8", "workload": "smvd", "phase": "warm_query"}
	spec := entry{"model": "hanoi-7", "workload": "specs", "spec": "AG !goal"}
	with := func(id entry, metric string, v float64) entry {
		e := entry{metric: v}
		for k, x := range id {
			e[k] = x
		}
		return e
	}
	for _, c := range []struct {
		id            entry
		metric        string
		base, ok, bad float64
	}{
		{spec, "peak_live_nodes", 1000, 1250, 1251},
		{spec, "witness_lookups", 1000, 1250, 1251},
		{spec, "wall_ms", 100, 200, 201},
		{cold, "cache_hit_rate", 0.4, 0.31, 0.29},
		{warm, "warm_speedup", 100, 10, 9.9},
	} {
		base := with(c.id, c.metric, c.base)
		if n, out := run(base, with(c.id, c.metric, c.ok)); n != 0 {
			t.Errorf("%s %v -> %v failed the gate:\n%s", c.metric, c.base, c.ok, out)
		}
		if n, out := run(base, with(c.id, c.metric, c.bad)); n != 1 {
			t.Errorf("%s %v -> %v passed the gate:\n%s", c.metric, c.base, c.bad, out)
		}
	}
}

func TestGateReportsWorstRatioPerRule(t *testing.T) {
	base := []entry{
		{"model": "a", "peak_live_nodes": 100.0},
		{"model": "b", "peak_live_nodes": 100.0},
	}
	cur := index([]entry{
		{"model": "a", "peak_live_nodes": 110.0},
		{"model": "b", "peak_live_nodes": 120.0},
	})
	var b strings.Builder
	if n := gate(&b, base, cur); n != 0 {
		t.Fatalf("%d failures:\n%s", n, b.String())
	}
	if !strings.Contains(b.String(), "worst peak_live_nodes  1.20x  b") {
		t.Fatalf("worst ratio not reported:\n%s", b.String())
	}
}
