package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie beyond it.
const minBeyond = 10

// tailLadder is the set of percentiles a tail falls back through when the
// sample count does not support the one a metric is named after.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the 1-based nearest rank of the p-quantile among n samples:
// the smallest k with k/n >= p. The epsilon keeps binary rounding of p·n
// (0.99·1000 = 989.999…) from moving the rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank p-quantile of xs, or NaN for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[rank(len(xs), p)-1]
}

// tailSupported reports whether n samples put at least minBeyond samples
// beyond the nearest-rank p-quantile.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// tail returns the p-quantile of xs when the sample count supports it, and
// otherwise the highest percentile of tailLadder that it does support. It
// returns the percentile used; NaN when not even the median is supported.
func tail(xs []float64, p float64) (value, used float64) {
	if tailSupported(len(xs), p) {
		return percentile(xs, p), p
	}
	for _, q := range tailLadder {
		if q < p && tailSupported(len(xs), q) {
			return percentile(xs, q), q
		}
	}
	return math.NaN(), math.NaN()
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which is
// how a run set's spread is judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
