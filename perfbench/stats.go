package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact order statistic at fraction q of xs: the
// smallest sample x such that at least ceil(q·n) samples are <= x
// (the nearest-rank definition). Nothing is interpolated, so the value
// is always one of the measured samples. xs is not modified. An empty
// input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the exact middle order statistic; for an even count it is
// the mean of the two middle samples, so a two-sample median does not
// silently pick the smaller one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
