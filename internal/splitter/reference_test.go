// Differential test of the bracketed α search: OptimalAlphas must
// return, bit for bit, what the paper's plain grid scan returns. The
// scan is kept here as the reference.
package splitter_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/phys"
	"mnoc/internal/splitter"
	"mnoc/internal/topo"
	"mnoc/internal/workload"
)

// referenceOptimalAlphas is the α search as a full grid scan: per-
// coordinate descent over the 0.1, 0.01 and 0.001 grids, four passes
// each, every grid point evaluated, ties to the earliest point, the
// current α kept unless a point strictly improves on it; then the
// nesting clamp with the 0.01 floor.
func referenceOptimalAlphas(modeCosts []phys.MicroWatts, weights []float64) []float64 {
	const minAlpha = 0.01
	m := len(modeCosts)
	alphas := make([]float64, m)
	for i := range alphas {
		alphas[i] = 1
	}
	if m == 1 {
		return alphas
	}
	if m == 2 {
		return splitter.OptimalAlphasTwoMode(modeCosts, weights)
	}
	for _, step := range []float64{0.1, 0.01, 0.001} {
		for iter := 0; iter < 4; iter++ {
			for k := 1; k < m; k++ {
				best, bestV := alphas[k], splitter.WeightedPowerForAlphas(modeCosts, alphas, weights)
				for v := step; v <= 1.0+1e-9; v += step {
					alphas[k] = v
					obj := splitter.WeightedPowerForAlphas(modeCosts, alphas, weights)
					if obj < bestV {
						best, bestV = v, obj
					}
				}
				alphas[k] = best
			}
		}
	}
	for k := 1; k < m; k++ {
		if alphas[k] > alphas[k-1] {
			alphas[k] = alphas[k-1]
		}
		if alphas[k] < minAlpha {
			alphas[k] = minAlpha
		}
	}
	return alphas
}

// checkAgainstReference fails unless OptimalAlphas and the reference
// scan agree bit for bit on one instance.
func checkAgainstReference(t *testing.T, name string, costs []phys.MicroWatts, weights []float64) {
	t.Helper()
	got := splitter.OptimalAlphas(costs, weights)
	want := referenceOptimalAlphas(costs, weights)
	if len(got) != len(want) {
		t.Fatalf("%s: %d alphas, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: costs %v weights %v:\n got  %v\n want %v", name, costs, weights, got, want)
		}
	}
}

// TestOptimalAlphasMatchesGridScanRandom covers random instances with
// 3–9 modes whose costs and weights span 1e-13 to 1e13 and are zero
// with some probability, plus the all-zero and negative corner cases.
func TestOptimalAlphasMatchesGridScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	magnitude := func(zeroProb float64) float64 {
		if rng.Float64() < zeroProb {
			return 0
		}
		return rng.Float64() * math.Pow(10, -13+26*rng.Float64())
	}
	instances := 1000
	if testing.Short() {
		instances = 200
	}
	for i := 0; i < instances; i++ {
		m := 3 + rng.Intn(7)
		costs := make([]phys.MicroWatts, m)
		weights := make([]float64, m)
		for j := range costs {
			costs[j] = phys.MicroWatts(magnitude(0.15))
			weights[j] = magnitude(0.15)
		}
		checkAgainstReference(t, fmt.Sprintf("instance %d", i), costs, weights)
	}
	for m := 3; m <= 9; m++ {
		zeroCosts := make([]phys.MicroWatts, m)
		zeroWeights := make([]float64, m)
		someCosts := make([]phys.MicroWatts, m)
		someWeights := make([]float64, m)
		for j := range someCosts {
			someCosts[j] = phys.MicroWatts(magnitude(0))
			someWeights[j] = magnitude(0)
		}
		checkAgainstReference(t, fmt.Sprintf("m=%d zero costs", m), zeroCosts, someWeights)
		checkAgainstReference(t, fmt.Sprintf("m=%d zero weights", m), someCosts, zeroWeights)
		checkAgainstReference(t, fmt.Sprintf("m=%d all zero", m), zeroCosts, zeroWeights)
		// Unphysical negative entries void the convexity argument; the
		// search must fall back to the whole grid.
		someCosts[1] = -someCosts[1]
		someWeights[m-1] = -someWeights[m-1]
		checkAgainstReference(t, fmt.Sprintf("m=%d negative entries", m), someCosts, someWeights)
	}
}

// TestOptimalAlphasMatchesGridScanBenchInstance covers the
// BenchmarkSplitterDesign instance: radix 256, source 128, four modes
// interleaved, uniform weights.
func TestOptimalAlphasMatchesGridScanBenchInstance(t *testing.T) {
	p := splitter.DefaultParams(256)
	modeOf := make([]int, 256)
	for j := range modeOf {
		modeOf[j] = j % 4
	}
	modeOf[128] = -1
	costs, err := splitter.ModeCosts(p, 128, modeOf, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "BenchmarkSplitterDesign", costs, topo.UniformWeights(4))
}

// TestOptimalAlphasMatchesGridScanBestDesign covers every source of the
// quick-scale 4M_G_S12 design, the paper's best power topology: its
// scored partition over the 12-benchmark sampled matrix, with the
// per-source weights that sample gives.
func TestOptimalAlphasMatchesGridScanBestDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the quick-scale QAP mappings")
	}
	c, err := exp.NewContext(exp.Quick())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Precompute(ctx, 2); err != nil {
		t.Fatal(err)
	}
	s12, err := c.SampledMatrix(ctx, workload.Names())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Cfg.Splitter
	tp, err := topo.BestScoredPartition(s12, p, topo.CandidatePartitions4(c.Opt.N), "4M_G_S12")
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < c.Opt.N; src++ {
		w, err := tp.TrafficModeWeights(s12, src)
		if err != nil {
			t.Fatal(err)
		}
		costs, err := splitter.ModeCosts(p, src, tp.ModeOf[src], tp.Modes)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("4M_G_S12 source %d", src), costs, w)
	}
}
