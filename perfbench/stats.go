package main

import (
	"math"
	"sort"
	"time"
)

// tailPermille are the percentiles, in tenths of a percent, that a latency
// tail may be reported at, highest first.
var tailPermille = []int{999, 990, 900, 500}

// rank returns the 1-based nearest-rank position of the p-permille
// percentile among n samples.
func rank(n, p int) int {
	k := (p*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// beyond returns how many of n samples lie above the p-permille percentile.
func beyond(n, p int) int { return n - rank(n, p) }

// highestTail returns the highest percentile (in permille) with at least ten
// of n samples beyond it, and false when even the median has fewer.
func highestTail(n int) (int, bool) {
	for _, p := range tailPermille {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// posInf is the latency of a failed request.
var posInf = math.Inf(1)

// latencies collects per-request latencies; a failed request is +Inf, so it
// is over any limit a percentile is compared against.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-permille percentile of sorted xs;
// an infinite value (a failed request) reads as the largest float.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	v := sorted[rank(len(sorted), p)-1]
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
