package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/bdd"
)

// minSamplesP95 is the sample-count rule for the reported tail: a p95 is
// a figure only with at least ten samples beyond it, which takes 200
// requests. Every timed phase runs until it has this many.
const minSamplesP95 = 200

// percentile returns the nearest-rank q-quantile of ascending samples:
// the smallest sample with at least q·n samples at or below it, or 0
// when there are none.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
// The small slack keeps a q·n that is whole in exact arithmetic from
// rounding up past itself.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// samplesBeyond is how many of n samples lie above the q-quantile.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, q)
}

// median returns the middle of xs, or the mean of the two middle values
// for an even count; xs is left unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cacheHitRatios derives the two computed-cache hit ratios from raw
// manager counters. Stats.CacheLookups counts every computed-table lookup
// except AndExists's, which Stats.AndExistsLookups counts, while
// Stats.CacheHits counts the AndExists hits as well. Each ratio therefore
// divides the hits of a set of tables by the lookups of the same tables.
// RelStats.CacheHitRate mixes the two bases and can read above 1, so it
// is not used here.
func cacheHitRatios(s bdd.Stats) (ite, andExists float64) {
	var iteHits uint64
	if s.CacheHits > s.AndExistsHits {
		iteHits = s.CacheHits - s.AndExistsHits
	}
	return ratio(float64(iteHits), float64(s.CacheLookups)),
		ratio(float64(s.AndExistsHits), float64(s.AndExistsLookups))
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
