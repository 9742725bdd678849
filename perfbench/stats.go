package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no percentile.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("quantile %v outside [0, 1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// beyond is the number of samples of an n-sample set that lie above its
// q-quantile: the sample count a tail percentile rests on.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n) * (1 - q)))
}

// tail returns the q-quantile of xs only when at least minBeyond samples
// lie beyond it, so a reported tail is never one or two outliers.
func tail(xs []float64, q float64, minBeyond int) (float64, error) {
	if b := beyond(len(xs), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples rests on %d samples beyond it, want at least %d",
			100*q, len(xs), b, minBeyond)
	}
	return percentile(xs, q)
}

// median is the 0.5-quantile.
func median(xs []float64) (float64, error) { return percentile(xs, 0.5) }

// spread is the distance between the first and third quartiles as a share
// of the median, with the quartiles taken as Python's
// statistics.quantiles(xs, n=4) (exclusive method) does — the rule by
// which the benchmark's steadiness is judged.
func spread(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("spread needs at least 2 samples, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// statistics.quantiles(method="exclusive") with n=4, integer math
	// and clamping exactly as CPython does it.
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med, err := median(s)
	if err != nil {
		return 0, err
	}
	if med == 0 {
		return 0, fmt.Errorf("spread of a sample with median 0")
	}
	return (q(3) - q(1)) / math.Abs(med), nil
}
