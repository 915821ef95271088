package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	xs := []float64{0.5, 0.1, 0.4, 0.2, 0.3, 0.9, 0.8, 0.7, 0.6, 1.0}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5}, {0.9, 0.9}, {0.99, 1.0}, {0.1, 0.1}, {0, 0.1}, {1, 1.0},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Two samples in one histogram bucket: no interpolated value between
	// them is ever reported.
	if got := quantile([]float64{0.21, 0.49}, 0.5); got != 0.21 {
		t.Errorf("p50 of two samples = %v, want the lower sample 0.21", got)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 200; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		orig := slices.Clone(xs)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got := quantile(xs, q)
			if !slices.Contains(xs, got) {
				t.Fatalf("n=%d q=%v: %v is not a sample", n, q, got)
			}
			atOrBelow := 0
			for _, x := range xs {
				if x <= got {
					atOrBelow++
				}
			}
			if need := int(math.Ceil(q * float64(n))); atOrBelow < need || atOrBelow-1 >= need {
				t.Fatalf("n=%d q=%v: %d samples <= %v, want the smallest value with >= %d", n, q, atOrBelow, got, need)
			}
		}
		if !slices.Equal(xs, orig) {
			t.Fatal("quantile reordered its input")
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSelfTimeMergesParallelChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	rec := &recorder{spans: []span{
		{ID: 1, Layer: "runner", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "exp", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Layer: "exp", Start: 2 * ms, End: 6 * ms}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "exp", Start: 8 * ms, End: 9 * ms},
	}}
	self := rec.selfTimes(0)
	if got, want := self["runner"], 4*time.Millisecond; got != want {
		t.Errorf("runner self = %v, want %v (10ms minus the 1-6 and 8-9 union)", got, want)
	}
	if got, want := self["exp"], 9*time.Millisecond; got != want {
		t.Errorf("exp self = %v, want %v", got, want)
	}
	if got := rec.selfTimes(1)["runner"]; got != 0 {
		t.Errorf("spans before `from` counted: runner self %v", got)
	}
}
