package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, 10 beyond
		{999, 0.99, false}, // rank 990, 9 beyond
		{200, 0.95, true},  // rank 190, 10 beyond
		{199, 0.95, false}, // rank 190, 9 beyond
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestTailFallsBackToSupportedPercentile(t *testing.T) {
	v, used := tail(seq(1000), 0.99)
	if used != 0.99 || v != 990 {
		t.Errorf("tail(1..1000, p99) = %g at p%g, want 990 at p99", v, 100*used)
	}
	// 500 samples support p95 (rank 475, 25 beyond) but not p99 (5 beyond).
	v, used = tail(seq(500), 0.99)
	if used != 0.95 || v != 475 {
		t.Errorf("tail(1..500, p99) = %g at p%g, want 475 at p95", v, 100*used)
	}
	if v, _ := tail(seq(5), 0.99); !math.IsNaN(v) {
		t.Errorf("tail of 5 samples = %g, want NaN", v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles(seq(5))
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
	if m := median(seq(10)); m != q2Of(seq(10)) {
		t.Errorf("median %g differs from the middle quartile", m)
	}
}

func q2Of(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}
