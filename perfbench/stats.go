package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is reported at. The bands
// between rungs are wide (5x-10x in sample count) so a run-to-run wobble in
// the number of samples does not flip the reported percentile.
var tailLadder = []float64{50, 90, 99, 99.9}

// percentile is the nearest-rank percentile of sorted xs (p in [0,100]).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// product is rounded to 1e-9 first so that p99.9 of 10000 samples is rank
// 9990, not 9991 by floating-point excess.
func nearestRank(n int, p float64) int {
	x := math.Round(p/100*float64(n)*1e9) / 1e9
	return min(max(int(math.Ceil(x)), 1), n)
}

// tail picks the highest ladder percentile with at least ten samples beyond
// it and returns that percentile and its value. With fewer than 20 samples
// no rung qualifies and the median is returned with ok=false.
func tail(xs []float64) (p, v float64, ok bool) {
	s := sortedCopy(xs)
	p = tailLadder[0]
	for _, q := range tailLadder {
		if beyond(len(s), q) >= 10 {
			p, ok = q, true
		}
	}
	return p, percentile(s, p), ok
}

// beyond counts the samples ranked strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
