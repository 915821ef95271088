package splitter

import (
	"math"
	"math/rand"
	"testing"

	"mnoc/internal/phys"
	"mnoc/internal/waveguide"
)

// modeAssignment builds a modeOf slice for n nodes where assign decides
// each destination's mode.
func modeAssignment(n, src int, assign func(j int) int) []int {
	m := make([]int, n)
	for j := range m {
		if j == src {
			m[j] = -1
			continue
		}
		m[j] = assign(j)
	}
	return m
}

func TestDefaultParamsPmin(t *testing.T) {
	p := DefaultParams(256)
	// Pmin = (10 + 5) µW × 10^(0.2/10) ≈ 15.70 µW.
	want := 15.0 * math.Pow(10, 0.02)
	if math.Abs(float64(p.PminUW)-want) > 1e-9 {
		t.Errorf("PminUW = %v, want %v", p.PminUW, want)
	}
	if p.CouplerLossDB != 1.0 {
		t.Errorf("CouplerLossDB = %v, want 1", p.CouplerLossDB)
	}
}

// TestDesignDeliversExactlyRequestedPower is the core Appendix A
// invariant: forward-propagating the solved chain with the mode-0 power
// delivers exactly β_j·Pmin = α_{mode(j)}·Pmin to every destination.
func TestDesignDeliversExactlyRequestedPower(t *testing.T) {
	p := DefaultParams(64)
	alphas := []float64{1, 0.5, 0.25, 0.1}
	for _, src := range []int{0, 1, 31, 62, 63} {
		modeOf := modeAssignment(64, src, func(j int) int { return j % 4 })
		d, err := SolveWithAlphas(p, src, modeOf, alphas)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		recv := d.Chain.Received(d.InGuideMode0UW)
		for j := 0; j < 64; j++ {
			if j == src {
				continue
			}
			want := p.PminUW.Scale(alphas[modeOf[j]])
			if math.Abs(float64(recv[j]-want)) > 1e-6*float64(want) {
				t.Fatalf("src %d node %d: received %v, want %v", src, j, recv[j], want)
			}
		}
	}
}

// TestModeNestingInvariant: in mode m's power, every destination of mode
// <= m receives at least Pmin — low-mode nodes stay reachable in all
// higher modes (Section 3.1).
func TestModeNestingInvariant(t *testing.T) {
	p := DefaultParams(64)
	src := 20
	modeOf := modeAssignment(64, src, func(j int) int { return (j * 7) % 3 })
	d, err := Solve(p, src, modeOf, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		inGuide := d.InGuideMode0UW.Div(d.Alphas[m])
		recv := d.Chain.Received(inGuide)
		for j := 0; j < 64; j++ {
			if j == src || modeOf[j] > m {
				continue
			}
			if recv[j] < p.PminUW.Scale(1-1e-9) {
				t.Fatalf("mode %d: node %d (mode %d) receives %v < Pmin %v",
					m, j, modeOf[j], recv[j], p.PminUW)
			}
		}
	}
}

func TestModePowersOrderedAndScaled(t *testing.T) {
	p := DefaultParams(32)
	src := 10
	modeOf := modeAssignment(32, src, func(j int) int {
		if j < 16 {
			return 0
		}
		return 1
	})
	d, err := Solve(p, src, modeOf, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ModePowerUW) != 2 {
		t.Fatalf("got %d mode powers", len(d.ModePowerUW))
	}
	if !(d.ModePowerUW[0] < d.ModePowerUW[1]) {
		t.Errorf("mode powers not increasing: %v", d.ModePowerUW)
	}
	// Pmode_m = Pmode_0 / α_m.
	want := d.ModePowerUW[0].Div(d.Alphas[1])
	if math.Abs(float64(d.ModePowerUW[1]-want)) > 1e-9*float64(want) {
		t.Errorf("Pmode_1 = %v, want Pmode_0/α1 = %v", d.ModePowerUW[1], want)
	}
}

func TestBroadcastPowerMatchesClosedForm(t *testing.T) {
	p := DefaultParams(256)
	for _, src := range []int{0, 64, 127, 255} {
		d, err := BroadcastDesign(p, src)
		if err != nil {
			t.Fatal(err)
		}
		sum := phys.MicroWatts(0)
		for j := 0; j < 256; j++ {
			if j == src {
				continue
			}
			sum += p.PminUW.Over(p.Layout.PathTransmission(src, j))
		}
		if math.Abs(float64(d.InGuideMode0UW-sum)) > 1e-6*float64(sum) {
			t.Errorf("src %d: in-guide %v, closed form %v", src, d.InGuideMode0UW, sum)
		}
	}
}

func TestMiddleSourceCheaperThanEndSource(t *testing.T) {
	// Figure 6: sources near the middle of the waveguide need less
	// broadcast power than sources at the ends.
	p := DefaultParams(256)
	end, _ := BroadcastDesign(p, 0)
	mid, _ := BroadcastDesign(p, 127)
	if mid.ModePowerUW[0] >= end.ModePowerUW[0] {
		t.Errorf("middle source %v not cheaper than end source %v",
			mid.ModePowerUW[0], end.ModePowerUW[0])
	}
}

func TestReachPowerExponentialInDistance(t *testing.T) {
	// Figure 3: source power grows exponentially with broadcast
	// distance. Check the incremental cost of each further node grows.
	p := DefaultParams(256)
	src := 0
	prevInc := phys.MicroWatts(0)
	prevTotal := phys.MicroWatts(0)
	for d := 1; d <= 255; d++ {
		reach := make([]int, d)
		for i := range reach {
			reach[i] = i + 1
		}
		total, err := ReachPower(p, src, reach)
		if err != nil {
			t.Fatal(err)
		}
		inc := total - prevTotal
		if d > 1 && inc <= prevInc {
			t.Fatalf("marginal cost not increasing at distance %d: %v <= %v", d, inc, prevInc)
		}
		prevInc, prevTotal = inc, total
	}
}

func TestOptimalAlphasTwoModeStationaryPoint(t *testing.T) {
	costs := []phys.MicroWatts{1000, 5000}
	weights := []float64{0.8, 0.2}
	alphas := OptimalAlphasTwoMode(costs, weights)
	base := WeightedPowerForAlphas(costs, alphas, weights)
	// Any perturbation of α1 must not improve the objective.
	for _, d := range []float64{-0.05, -0.01, 0.01, 0.05} {
		a := alphas[1] + d
		if a <= 0 || a > 1 {
			continue
		}
		v := WeightedPowerForAlphas(costs, []float64{1, a}, weights)
		if v < base-1e-9 {
			t.Errorf("perturbed α1=%v gives %v < optimum %v", a, v, base)
		}
	}
}

func TestOptimalAlphasGridAgreesWithClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		costs := []phys.MicroWatts{phys.MicroWatts(rng.Float64()*9000 + 1000), phys.MicroWatts(rng.Float64()*9000 + 1000)}
		w0 := 0.1 + 0.8*rng.Float64()
		weights := []float64{w0, 1 - w0}
		exact := OptimalAlphasTwoMode(costs, weights)
		vExact := WeightedPowerForAlphas(costs, exact, weights)
		// Brute force on a fine grid.
		bestV := phys.MicroWatts(math.Inf(1))
		for a := 0.001; a <= 1; a += 0.001 {
			v := WeightedPowerForAlphas(costs, []float64{1, a}, weights)
			if v < bestV {
				bestV = v
			}
		}
		if vExact > bestV*(1+1e-3) {
			t.Errorf("trial %d: closed form %v worse than grid %v", trial, vExact, bestV)
		}
	}
}

func TestOptimalAlphasFourModeBeatsUniform(t *testing.T) {
	costs := []phys.MicroWatts{500, 1500, 4000, 12000}
	weights := []float64{0.55, 0.25, 0.15, 0.05}
	alphas := OptimalAlphas(costs, weights)
	opt := WeightedPowerForAlphas(costs, alphas, weights)
	uniform := WeightedPowerForAlphas(costs, []float64{1, 1, 1, 1}, weights)
	if opt >= uniform {
		t.Errorf("optimised alphas %v (%v) no better than broadcast-only (%v)", alphas, opt, uniform)
	}
	for m := 1; m < 4; m++ {
		if alphas[m] > alphas[m-1] {
			t.Errorf("alphas not non-increasing: %v", alphas)
		}
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	p := DefaultParams(16)
	modeOf := modeAssignment(16, 3, func(j int) int { return 0 })

	if _, err := Solve(p, 3, modeOf, []float64{0.5, 0.6}); err == nil {
		t.Error("weights summing to 1.1 accepted")
	}
	if _, err := Solve(p, 3, modeOf[:4], []float64{1}); err == nil {
		t.Error("short modeOf accepted")
	}
	bad := modeAssignment(16, 3, func(j int) int { return 5 })
	if _, err := Solve(p, 3, bad, []float64{1}); err == nil {
		t.Error("out-of-range mode accepted")
	}
	noSrc := modeAssignment(16, 3, func(j int) int { return 0 })
	noSrc[3] = 0 // source not marked -1
	if _, err := Solve(p, 3, noSrc, []float64{1}); err == nil {
		t.Error("source without -1 marker accepted")
	}
	allDest := modeAssignment(16, -1, func(j int) int { return 0 })
	for _, src := range []int{-1, 16} {
		if _, err := Solve(p, src, allDest, []float64{1}); err == nil {
			t.Errorf("source %d outside the layout accepted", src)
		}
	}
	if _, err := SolveWithAlphas(p, 3, modeOf, []float64{0.9}); err == nil {
		t.Error("alphas[0] != 1 accepted")
	}
	if _, err := SolveWithAlphas(p, 3, modeOf, []float64{1, 0.5, 0.7}); err == nil {
		t.Error("increasing alphas accepted")
	}
}

func TestWeightedPowerUW(t *testing.T) {
	p := DefaultParams(16)
	modeOf := modeAssignment(16, 0, func(j int) int {
		if j < 8 {
			return 0
		}
		return 1
	})
	d, err := Solve(p, 0, modeOf, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.WeightedPowerUW([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := d.ModePowerUW[0].Scale(0.5) + d.ModePowerUW[1].Scale(0.5)
	if math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("WeightedPowerUW = %v, want %v", got, want)
	}
	if _, err := d.WeightedPowerUW([]float64{1}); err == nil {
		t.Error("mismatched weight length accepted")
	}
}

func TestTwoModeCheaperThanBroadcastUnderSkewedTraffic(t *testing.T) {
	// The paper's whole premise: if most traffic goes to a nearby
	// subset, a 2-mode topology beats broadcast-everything.
	p := DefaultParams(256)
	src := 128
	near := func(j int) int {
		if j >= 64 && j < 192 {
			return 0
		}
		return 1
	}
	modeOf := modeAssignment(256, src, near)
	weights := []float64{0.9, 0.1}
	d, err := Solve(p, src, modeOf, weights)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := d.WeightedPowerUW(weights)
	b, _ := BroadcastDesign(p, src)
	if avg >= b.ModePowerUW[0] {
		t.Errorf("2-mode weighted power %v not below broadcast %v", avg, b.ModePowerUW[0])
	}
}

func TestNonContiguousModesSupported(t *testing.T) {
	// Section 3.2.1: nodes in a low power mode may be physically
	// farther than nodes only reachable in a high power mode.
	p := DefaultParams(32)
	src := 0
	modeOf := modeAssignment(32, src, func(j int) int {
		if j%2 == 0 {
			return 0 // even nodes (including far ones) in the low mode
		}
		return 1
	})
	d, err := Solve(p, src, modeOf, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recv := d.Chain.Received(d.InGuideMode0UW)
	// Far even node must receive full Pmin while near odd nodes get less.
	if recv[30] < p.PminUW*(1-1e-9) {
		t.Errorf("far low-mode node got %v < Pmin", recv[30])
	}
	if recv[1] >= p.PminUW {
		t.Errorf("near high-mode node got %v >= Pmin in mode 0", recv[1])
	}
}

func TestChainTapsValid(t *testing.T) {
	p := DefaultParams(128)
	modeOf := modeAssignment(128, 64, func(j int) int { return j % 2 })
	d, err := Solve(p, 64, modeOf, []float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Chain.Validate(); err != nil {
		t.Fatal(err)
	}
	// End nodes absorb everything.
	if d.Chain.Taps[0] != 1 || d.Chain.Taps[127] != 1 {
		t.Errorf("end taps = %v, %v, want 1, 1", d.Chain.Taps[0], d.Chain.Taps[127])
	}
}

func TestReachPowerErrors(t *testing.T) {
	p := DefaultParams(16)
	if _, err := ReachPower(p, 0, nil); err == nil {
		t.Error("empty reach accepted")
	}
	if _, err := ReachPower(p, 0, []int{0}); err == nil {
		t.Error("reach containing source accepted")
	}
	if _, err := ReachPower(p, 0, []int{99}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams(16)
	p.PminUW = 0
	if err := p.Validate(); err == nil {
		t.Error("Pmin=0 accepted")
	}
	p = DefaultParams(16)
	p.CouplerLossDB = -1
	if err := p.Validate(); err == nil {
		t.Error("negative coupler loss accepted")
	}
	p = Params{Layout: waveguide.Layout{N: 1, LengthCM: 18, LossDBPerCM: 1}, PminUW: 10}
	if err := p.Validate(); err == nil {
		t.Error("bad layout accepted")
	}
}

// TestWorstCaseDesignRepricing checks the longest-path accounting:
// the repriced design keeps the fabricated artefacts (taps, direction
// split, α vector) and scales every mode power by the same factor —
// the ratio of worst-path to average required in-guide power.
func TestWorstCaseDesignRepricing(t *testing.T) {
	p := DefaultParams(64)
	for _, src := range []int{0, 17, 31, 63} {
		modeOf := modeAssignment(64, src, func(j int) int { return j % 3 })
		d, err := Solve(p, src, modeOf, []float64{0.6, 0.3, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		wc, err := WorstCaseDesign(p, d, modeOf)
		if err != nil {
			t.Fatal(err)
		}
		// Fabrication unchanged.
		for j, tap := range d.Chain.Taps {
			if wc.Chain.Taps[j] != tap {
				t.Fatalf("src %d: tap[%d] changed %g -> %g", src, j, tap, wc.Chain.Taps[j])
			}
		}
		if wc.Chain.DirLow != d.Chain.DirLow {
			t.Fatalf("src %d: DirLow changed", src)
		}
		for m, a := range d.Alphas {
			if wc.Alphas[m] != a {
				t.Fatalf("src %d: alpha[%d] changed", src, m)
			}
		}
		// Worst-path pricing strictly dominates (the serpentine has
		// destinations nearer than the farthest one).
		if wc.InGuideMode0UW <= d.InGuideMode0UW {
			t.Fatalf("src %d: worst-case in-guide %v <= average %v",
				src, wc.InGuideMode0UW, d.InGuideMode0UW)
		}
		// Closed form: P0_wc = Σ_j α_{mode(j)}·Pmin / T_wc(src).
		tWC := float64(p.Layout.WorstPathTransmission(src))
		want := 0.0
		for j, m := range modeOf {
			if j == src {
				continue
			}
			want += d.Alphas[m] * float64(p.PminUW) / tWC
		}
		if got := float64(wc.InGuideMode0UW); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("src %d: worst-case in-guide %g, want %g", src, got, want)
		}
		// All mode powers scale by the same in-guide ratio.
		ratio := float64(wc.InGuideMode0UW) / float64(d.InGuideMode0UW)
		for m := range d.ModePowerUW {
			got := float64(wc.ModePowerUW[m]) / float64(d.ModePowerUW[m])
			if math.Abs(got-ratio) > 1e-9*ratio {
				t.Fatalf("src %d mode %d: power ratio %g, want %g", src, m, got, ratio)
			}
		}
	}
}

// TestWorstCaseDesignTwoNodes: with a single destination the only path
// is the longest path, so both accountings agree exactly.
func TestWorstCaseDesignTwoNodes(t *testing.T) {
	p := DefaultParams(2)
	d, err := BroadcastDesign(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WorstCaseDesign(p, d, []int{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if wc.InGuideMode0UW != d.InGuideMode0UW {
		t.Fatalf("single-path worst %v != average %v", wc.InGuideMode0UW, d.InGuideMode0UW)
	}
	if wc.ModePowerUW[0] != d.ModePowerUW[0] {
		t.Fatalf("single-path mode power %v != %v", wc.ModePowerUW[0], d.ModePowerUW[0])
	}
}

func TestWorstCaseDesignRejections(t *testing.T) {
	p := DefaultParams(8)
	modeOf := modeAssignment(8, 3, func(j int) int { return 0 })
	d, err := Solve(p, 3, modeOf, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WorstCaseDesign(p, d, modeOf[:4]); err == nil {
		t.Error("short modeOf accepted")
	}
	bad := modeAssignment(8, 3, func(j int) int { return 1 }) // out of range for 1 mode
	if _, err := WorstCaseDesign(p, d, bad); err == nil {
		t.Error("out-of-range mode accepted")
	}
}
