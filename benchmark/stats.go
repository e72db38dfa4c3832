package main

import (
	"math"
	"sort"

	"hawkeye/internal/metrics"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// highestPercentile is the highest of p50/p90/p99/p99.9/p99.99 that
// still has at least ten of n samples beyond it — the tail a sample of
// that size can support. Below 100 samples only the median is reported.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		// the epsilon is for 10000 * (100-99.9) / 100, which is not quite 10
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

var mean = metrics.Mean

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads
// printed by -compare match the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// rank k*(n+1)/4, clamped to the sample before the remainder is
		// taken, exactly as the Python implementation does
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
