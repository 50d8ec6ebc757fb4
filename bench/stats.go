// Package bench is dutbench, the repository's end-to-end and per-layer
// benchmark: five paper-sized workloads on the SMP, CONGEST and cluster
// backends, driven from outside through the public APIs of core, dist,
// engine, network and congest. cmd/dutbench is its command line; README.md
// holds the metric glossary.
package bench

import (
	"math"
	"sort"
)

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it. It is 0 for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(xs, n=4), the spread rule BENCHMARK.json
// bounds are checked with. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1): the smallest
// sample with at least a p share of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	} else if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailPercentile is the highest of p50, p90, p99 and p99.9 that has at
// least ten of n samples beyond it, so a reported tail is never decided by
// one or two outliers. It returns 0 when even the median does not qualify.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0, so an absent layer reports 0 rather
// than a NaN the JSON result could not carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
