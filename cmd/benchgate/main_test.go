package main

import "testing"

func TestKeyIgnoresMeasurements(t *testing.T) {
	a := entry{"model": "ring.smv", "mode": "disjunctive", "cells": 8.0,
		"peak_live_nodes": 1871.0, "wall_ms": 4.2,
		"note": "monolithic Trans materialized in 0.4ms"}
	b := entry{"model": "ring.smv", "mode": "disjunctive", "cells": 8.0,
		"peak_live_nodes": 99999.0, "wall_ms": 0.1,
		"note": "monolithic Trans materialized in 0.8ms"}
	if key(a) != key(b) {
		t.Fatalf("measurement fields leaked into identity:\n%s\n%s", key(a), key(b))
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := entry{"model": "ring.smv", "mode": "disjunctive", "cells": 8.0}
	for name, other := range map[string]entry{
		"cells": {"model": "ring.smv", "mode": "disjunctive", "cells": 4.0},
		"mode":  {"model": "ring.smv", "mode": "conjunctive", "cells": 8.0},
		"model": {"model": "mutex.smv", "mode": "disjunctive", "cells": 8.0},
		"bool":  {"model": "ring.smv", "mode": "disjunctive", "cells": 8.0, "completed": true},
	} {
		if key(base) == key(other) {
			t.Errorf("%s: identity collision: %s", name, key(base))
		}
	}
}

func TestDescribeSkipsMissingFields(t *testing.T) {
	got := describe(entry{"model": "dining.smv", "mode": "monolithic", "cells": 4.0})
	want := "dining.smv monolithic cells=4"
	if got != want {
		t.Fatalf("describe = %q, want %q", got, want)
	}
}

func index(es ...entry) map[string]entry {
	out := make(map[string]entry, len(es))
	for _, e := range es {
		out[key(e)] = e
	}
	return out
}

func TestGateTimeMetricWithinThreshold(t *testing.T) {
	base := []entry{{"model": "arbiter", "reorder": true, "reorder_ms": 100.0}}
	cur := index(entry{"model": "arbiter", "reorder": true, "reorder_ms": 190.0})
	if n := gate(base, cur, "reorder_ms", 100, timeGateFloorMS); n != 0 {
		t.Fatalf("1.9x on a 2x threshold failed the gate (%d failures)", n)
	}
}

func TestGateTimeMetricRegression(t *testing.T) {
	base := []entry{{"model": "arbiter", "reorder": true, "reorder_ms": 100.0}}
	cur := index(entry{"model": "arbiter", "reorder": true, "reorder_ms": 201.0})
	if n := gate(base, cur, "reorder_ms", 100, timeGateFloorMS); n != 1 {
		t.Fatalf("2.01x on a 2x threshold passed the gate (%d failures)", n)
	}
}

func TestGateTimeMetricFloorSkipsNoise(t *testing.T) {
	// A 1ms baseline that jumps to 50ms is scheduler noise, not signal:
	// the floor must keep it out of the gate.
	base := []entry{{"model": "ring", "reorder": true, "reorder_ms": 1.0}}
	cur := index(entry{"model": "ring", "reorder": true, "reorder_ms": 50.0})
	if n := gate(base, cur, "reorder_ms", 100, timeGateFloorMS); n != 0 {
		t.Fatalf("sub-floor baseline was gated (%d failures)", n)
	}
}

func TestGateMissingEntryStillFails(t *testing.T) {
	base := []entry{{"model": "arbiter", "reorder": true, "reorder_ms": 100.0}}
	if n := gate(base, index(), "reorder_ms", 100, timeGateFloorMS); n != 1 {
		t.Fatalf("dropped entry passed the time gate (%d failures)", n)
	}
}
