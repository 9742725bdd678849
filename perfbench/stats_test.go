package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.99, 39.7},
	} {
		got, err := percentile(xs, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input in place")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Errorf("percentile of an empty sample succeeded")
	}
	if _, err := percentile(xs, 1.5); err == nil {
		t.Errorf("percentile outside [0, 1] succeeded")
	}
}

func TestTailNeedsSamplesBeyondIt(t *testing.T) {
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(49, 0.9); got != 4 {
		t.Errorf("beyond(49, 0.9) = %d, want 4", got)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tail(xs, 0.99, 10); err == nil {
		t.Errorf("p99 of 999 samples (9 beyond) was reported")
	}
	xs = append(xs, 999)
	if got, err := tail(xs, 0.99, 10); err != nil || math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989.01", got, err)
	}
}

// The expected spreads are Python's
// (q[2]-q[0])/median for q = statistics.quantiles(xs, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// statistics.quantiles([5, 1, 4, 2, 3], n=4) = [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, (4.5 - 1.5) / 3},
		// statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]: the
		// exclusive method extrapolates on tiny samples.
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
		{[]float64{7, 7, 7, 7}, 0},
	} {
		got, err := spread(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	if _, err := spread([]float64{1}); err == nil {
		t.Errorf("spread of one sample succeeded")
	}
}
