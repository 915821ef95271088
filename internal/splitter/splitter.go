// Package splitter implements the paper's Appendix A: designing the
// per-destination waveguide splitter ratios S_j and the per-mode source
// powers Pmode_m that realise a given local power topology at minimum
// weighted source power (Equation 1).
//
// The key structure (Appendix A): destinations unique to power mode m
// receive α_m·Pmin when the source injects the mode-0 power, with
// α_0 = 1 > α_1 > … > α_{M−1} > 0. Injecting Pmode_m = Pmode_0/α_m then
// delivers exactly Pmin to mode-m destinations and > Pmin to all
// lower-mode destinations, which preserves the topology's nesting
// invariant. Because the splitter taps divert exactly each destination's
// required power, the minimal injected mode-0 power has the closed form
//
//	Pmode_0 = Σ_j α_{mode(j)}·Pmin / T(src,j)
//
// where T is the waveguide-only transmission — all other losses are
// folded into Pmin, exactly as the paper states ("Pmin … considers the
// insertion loss of various optical devices and photoreceiver mIOP").
// The remaining free choice is the α vector, optimised to minimise
// Σ_m w_m·Pmode_m; we provide both the paper's grid search and the exact
// stationary-point solution they approximate.
package splitter

import (
	"fmt"
	"math"

	"mnoc/internal/device"
	"mnoc/internal/phys"
	"mnoc/internal/waveguide"
)

// Params carries the optical parameters needed to size splitters.
type Params struct {
	Layout waveguide.Layout

	// PminUW is the effective minimum power a destination's tap must
	// divert: photodetector mIOP plus chromophore loss, scaled by the
	// receiver-side splitter insertion loss.
	PminUW phys.MicroWatts

	// CouplerLossDB is the source-side coupler loss between the QD LED
	// and the waveguide (Table 3: 1 dB). It scales the LED output
	// relative to the power present in the guide.
	CouplerLossDB phys.Decibels
}

// DefaultParams assembles Params from the Table 3 device models for an
// n-node crossbar.
func DefaultParams(n int) Params {
	return ParamsFromDevices(waveguide.NewSerpentine(n),
		device.DefaultPhotodetector(), device.DefaultChromophore(), 1.0, 0.2)
}

// ParamsFromDevices folds receiver-side device losses into Pmin:
// Pmin = (mIOP + chromophore loss) · splitterInsertion.
func ParamsFromDevices(l waveguide.Layout, pd device.Photodetector, ch device.Chromophore,
	couplerLossDB, splitterLossDB phys.Decibels) Params {
	pmin := (pd.MIOPUW + ch.LossUW(pd.MIOPUW)).Scale(splitterLossDB.Plus(pd.InsertionLossDB).Linear())
	return Params{Layout: l, PminUW: pmin, CouplerLossDB: couplerLossDB}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	if err := phys.CheckPositive("Params.PminUW", p.PminUW); err != nil {
		return err
	}
	if p.CouplerLossDB < 0 {
		return fmt.Errorf("splitter: negative coupler loss %g dB", p.CouplerLossDB)
	}
	return nil
}

// Design is a solved splitter design for one source.
type Design struct {
	// Chain holds the fabricated tap ratios and source direction split.
	Chain waveguide.Chain
	// Alphas[m] is the mode-m scale factor (Alphas[0] == 1).
	Alphas []float64
	// ModePowerUW[m] is the optical power the QD LED must emit for mode
	// m (includes the source coupler loss).
	ModePowerUW []phys.MicroWatts
	// InGuideMode0UW is the mode-0 power present in the waveguide
	// (before the coupler loss is applied), i.e. Pmode_0 of Appendix A.
	InGuideMode0UW phys.MicroWatts
}

// WeightedPowerUW evaluates Equation 1 for the design under the given
// per-mode communication weights (which need not be the weights the
// design was optimised for).
func (d *Design) WeightedPowerUW(weights []float64) (phys.MicroWatts, error) {
	if len(weights) != len(d.ModePowerUW) {
		return 0, fmt.Errorf("splitter: %d weights for %d modes", len(weights), len(d.ModePowerUW))
	}
	sum := 0.0
	for m, w := range weights {
		sum += w * float64(d.ModePowerUW[m])
	}
	return phys.MicroWatts(sum), nil
}

// ModeCosts returns A_m = Σ_{j : mode(j)=m} Pmin/T(src,j) for each mode:
// the in-guide power mode m's members would require at full strength.
// modeOf[j] gives destination j's mode index, and must be -1 exactly at
// j == src. Modes must be in [0, M).
func ModeCosts(p Params, src int, modeOf []int, modes int) ([]phys.MicroWatts, error) {
	return maskedModeCosts(p, src, modeOf, modes, nil)
}

// maskedModeCosts is ModeCosts with an optional exclusion mask:
// excluded destinations contribute nothing (their taps will be zero).
func maskedModeCosts(p Params, src int, modeOf []int, modes int, excluded []bool) ([]phys.MicroWatts, error) {
	if len(modeOf) != p.Layout.N {
		return nil, fmt.Errorf("splitter: %d mode entries for %d nodes", len(modeOf), p.Layout.N)
	}
	if src < 0 || src >= p.Layout.N {
		return nil, fmt.Errorf("splitter: source %d out of range [0,%d)", src, p.Layout.N)
	}
	if modes < 1 {
		return nil, fmt.Errorf("splitter: need at least one mode, got %d", modes)
	}
	if excluded != nil && len(excluded) != p.Layout.N {
		return nil, fmt.Errorf("splitter: %d exclusion entries for %d nodes", len(excluded), p.Layout.N)
	}
	a := make([]phys.MicroWatts, modes)
	path := p.Layout.PathTransmissions()
	for j, m := range modeOf {
		if j == src {
			if m != -1 {
				return nil, fmt.Errorf("splitter: source %d assigned mode %d, want -1", src, m)
			}
			continue
		}
		if m < 0 || m >= modes {
			return nil, fmt.Errorf("splitter: destination %d mode %d out of [0,%d)", j, m, modes)
		}
		if excluded != nil && excluded[j] {
			continue
		}
		a[m] += p.PminUW.Over(path[abs(src-j)])
	}
	return a, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// WeightedPowerForAlphas evaluates Σ_m w_m·(Σ_l α_l·A_l)/α_m, the
// objective of the α search, without building a full design.
func WeightedPowerForAlphas(modeCosts []phys.MicroWatts, alphas, weights []float64) phys.MicroWatts {
	p0 := 0.0
	for m, a := range alphas {
		p0 += a * float64(modeCosts[m])
	}
	sum := 0.0
	for m, w := range weights {
		sum += w * p0 / alphas[m]
	}
	return phys.MicroWatts(sum)
}

// OptimalAlphasTwoMode returns the exact minimiser for a 2-mode design:
// α1 = sqrt(w1·A0 / (w0·A1)), clamped into (0,1]. Degenerate inputs
// (empty mode, zero weight) fall back to α1 = 1.
func OptimalAlphasTwoMode(modeCosts []phys.MicroWatts, weights []float64) []float64 {
	a0, a1 := float64(modeCosts[0]), float64(modeCosts[1])
	w0, w1 := weights[0], weights[1]
	alpha := 1.0
	if a1 > 0 && w0 > 0 {
		alpha = math.Sqrt(w1 * a0 / (w0 * a1))
		if alpha > 1 {
			alpha = 1
		}
		if alpha < minAlpha {
			alpha = minAlpha
		}
	}
	return []float64{1, alpha}
}

// minAlpha bounds how faint a high mode may be in mode 0. Below this the
// required tap ratios become unfabricable and Pmode_m explodes; the
// paper's 0.1-grid search has the same implicit floor.
const minAlpha = 0.01

// alphaGrid is one resolution level of the α search: the points step,
// 2·step, … up to 1, built by repeated `v += step` exactly as a plain
// scan visits them, so every point is bit-equal to the scanned one.
type alphaGrid struct {
	step   float64
	points []float64
}

func newAlphaGrid(step float64) alphaGrid {
	g := alphaGrid{step: step}
	for v := step; v <= 1.0+1e-9; v += step {
		g.points = append(g.points, v)
	}
	return g
}

// alphaGrids is the search schedule: the paper's 0.1 grid, then two
// refinement levels. Built once; read-only afterwards.
var alphaGrids = [...]alphaGrid{newAlphaGrid(0.1), newAlphaGrid(0.01), newAlphaGrid(0.001)}

// nearest returns the index of the grid point closest to v (the first
// point for NaN or v below the grid, the last for v ≥ 1).
func (g *alphaGrid) nearest(v float64) int {
	last := len(g.points) - 1
	switch {
	case !(v > g.step):
		return 0
	case v >= 1:
		return last
	}
	return min(int(math.Round(v/g.step))-1, last)
}

// bracketMargin is the relative excess over the running minimum at
// which the bracketed α walk stops in one direction. It must exceed
// twice the relative rounding error of WeightedPowerForAlphas, about
// (2m+3)·2⁻⁵³ for m modes, by a wide margin.
const bracketMargin = 1e-9

// The walk's stop rule relies on relative rounding bounds, which
// underflow and overflow void; outside this range of the running
// minimum it scans the whole grid instead.
const bracketLo, bracketHi = 1e-250, 1e250

// OptimalAlphas finds the α vector minimising the weighted power. It
// runs the paper's grid search (0.1 steps) followed by two refinement
// passes (0.01 then 0.001 steps) of per-coordinate descent, then clamps
// to the decreasing order the topology nesting requires.
func OptimalAlphas(modeCosts []phys.MicroWatts, weights []float64) []float64 {
	m := len(modeCosts)
	if m == 2 {
		return OptimalAlphasTwoMode(modeCosts, weights)
	}
	alphas := DescendAlphas(modeCosts, weights, len(alphaGrids))
	// Enforce the nesting invariant α_0 ≥ α_1 ≥ … (strictly decreasing
	// except where a mode is empty).
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

// DescendAlphas runs the coordinate descent of the α search, with one
// weight per mode cost, over the first `levels` (at most 3) grids of
// the 0.1, 0.01, 0.001 schedule, starting from α = 1, and returns the α
// vector before any nesting clamp. Each level makes up to four passes
// over α_1 … α_{m−1}; each coordinate moves to the grid point the
// paper's full scan would pick (searchCoordinate). A pass that moves
// nothing ends its level early: the next pass would start from the
// same α and move nothing either.
func DescendAlphas(modeCosts []phys.MicroWatts, weights []float64, levels int) []float64 {
	m := len(modeCosts)
	alphas := make([]float64, m)
	// The bracket needs non-negative costs and weights; anything else
	// (never a physical input) gets the whole grid scanned.
	bracket := true
	for i := range alphas {
		alphas[i] = 1
		bracket = bracket && modeCosts[i] >= 0 && weights[i] >= 0
	}
	for l := range levels {
		g := &alphaGrids[l]
		for iter := 0; iter < 4; iter++ {
			moved := false
			for k := 1; k < m; k++ {
				v := searchCoordinate(modeCosts, alphas, weights, k, g, bracket)
				moved = moved || v != alphas[k]
				alphas[k] = v
			}
			if !moved {
				break
			}
		}
	}
	return alphas
}

// searchCoordinate returns the value for α_k that a full scan of g
// would leave: the earliest grid point with the least objective, if it
// beats the objective at the current α_k strictly, else the current
// α_k. It leaves alphas as it found it. With bracket false it visits
// every grid point.
//
// It gets there without scanning the grid. With every other coordinate
// fixed, Equation 1 is f(v) = (C + A_k·v)(D + w_k/v), where
// C = Σ_{l≠k} α_l·A_l and D = Σ_{l≠k} w_l/α_l, all four terms ≥ 0. That
// is convex on v > 0 with its minimum at v* = sqrt(w_k·C/(A_k·D)). The
// walk starts at the grid point nearest v* and grows a contiguous
// window outward in both directions, keeping the earliest least value
// seen. A direction stops at a point whose computed value exceeds the
// running minimum M by the relative bracketMargin.
//
// No skipped point can tie or beat M. WeightedPowerForAlphas sums
// products and quotients of non-negative terms, so its result is within
// a relative ε ≈ (2m+3)·2⁻⁵³ of the exact f, far below bracketMargin.
// The stopping point v therefore has f(v) > f(u), where u is the point
// in the window holding M. By convexity f does not decrease past v away
// from u, so every skipped x beyond v has f(x) > f(v), and its computed
// value exceeds (1−ε)/(1+ε)·(1+bracketMargin)·M > M. A skipped point
// can thus neither beat nor tie the window's minimum, and the window
// resolves ties to the earliest index just as the scan does.
//
// The start only decides how far the walk goes, not what it returns, so
// degenerate inputs need only a sensible start. A_k = 0 or D = 0 makes
// f non-increasing and v* = +Inf (start at 1); w_k = 0 or C = 0 makes
// it non-decreasing and v* = 0 (start at the first point); both at once
// make f constant and v* NaN (start at the first point). A constant
// objective never stops the walk, which then covers the whole grid
// exactly as the scan does.
func searchCoordinate(modeCosts []phys.MicroWatts, alphas, weights []float64, k int, g *alphaGrid, bracket bool) float64 {
	cur := alphas[k]
	curV := WeightedPowerForAlphas(modeCosts, alphas, weights)

	var c, d float64
	for l, a := range alphas {
		if l != k {
			c += a * float64(modeCosts[l])
			d += weights[l] / a
		}
	}
	vStar := math.Sqrt(weights[k] * c / (float64(modeCosts[k]) * d))

	pts := g.points
	bestI, bestV := -1, math.Inf(1)
	visit := func(i int) bool {
		alphas[k] = pts[i]
		v := float64(WeightedPowerForAlphas(modeCosts, alphas, weights))
		if v < bestV || (v == bestV && i < bestI) {
			bestI, bestV = i, v
		}
		return bracket && bestV >= bracketLo && bestV <= bracketHi && v > bestV*(1+bracketMargin)
	}
	lo := g.nearest(vStar)
	hi := lo
	visit(lo)
	up, down := hi < len(pts)-1, lo > 0
	for up || down {
		if up {
			hi++
			up = !visit(hi) && hi < len(pts)-1
		}
		if down {
			lo--
			down = !visit(lo) && lo > 0
		}
	}
	alphas[k] = cur
	if bestI >= 0 && bestV < float64(curV) {
		return pts[bestI]
	}
	return cur
}

// Solve produces the full splitter design for one source: mode powers,
// tap ratios and direction split. weights is the assumed fraction of
// the source's communication in each mode (Equation 1's w_m); it is used
// only to optimise the α vector.
func Solve(p Params, src int, modeOf []int, weights []float64) (*Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	modes := len(weights)
	costs, err := ModeCosts(p, src, modeOf, modes)
	if err != nil {
		return nil, err
	}
	if err := checkWeights(weights); err != nil {
		return nil, err
	}
	alphas := OptimalAlphas(costs, weights)
	return buildDesign(p, src, modeOf, alphas, nil)
}

// SolveMasked is Solve with a set of excluded destinations: their taps
// are forced to zero and no power is budgeted for them. It is the
// graceful-degradation re-planning primitive — after a permanent
// receiver death the system re-solves each source's splitter chain
// without the dead endpoint, shrinking every mode's injected power
// ("excluding failed endpoints"). A nil mask is equivalent to Solve.
func SolveMasked(p Params, src int, modeOf []int, weights []float64, excluded []bool) (*Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	modes := len(weights)
	costs, err := maskedModeCosts(p, src, modeOf, modes, excluded)
	if err != nil {
		return nil, err
	}
	if err := checkWeights(weights); err != nil {
		return nil, err
	}
	alphas := OptimalAlphas(costs, weights)
	return buildDesign(p, src, modeOf, alphas, excluded)
}

// SolveWithAlphas builds the design for caller-chosen α values (used by
// tests and sensitivity studies). alphas[0] must be 1 and the vector
// must be non-increasing.
func SolveWithAlphas(p Params, src int, modeOf []int, alphas []float64) (*Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(alphas) == 0 || alphas[0] != 1 {
		return nil, fmt.Errorf("splitter: alphas must start at 1, got %v", alphas)
	}
	for m := 1; m < len(alphas); m++ {
		if alphas[m] > alphas[m-1] || alphas[m] <= 0 {
			return nil, fmt.Errorf("splitter: alphas must be non-increasing in (0,1], got %v", alphas)
		}
	}
	if _, err := ModeCosts(p, src, modeOf, len(alphas)); err != nil {
		return nil, err
	}
	return buildDesign(p, src, modeOf, alphas, nil)
}

func checkWeights(w []float64) error {
	sum := 0.0
	for m, v := range w {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("splitter: weight[%d] = %g", m, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("splitter: weights sum to %g, want 1", sum)
	}
	return nil
}

// buildDesign runs the backward recurrence of Section 3.2.1 on each side
// of the source: the farthest reached node absorbs everything (S=1) and
// each nearer node's incident power is its own requirement plus the
// requirement of everything beyond it inflated by the intervening
// segment loss. That yields the minimal injected power and, walking
// forward again, the tap ratios.
func buildDesign(p Params, src int, modeOf []int, alphas []float64, excluded []bool) (*Design, error) {
	n := p.Layout.N
	t := float64(p.Layout.SegmentTransmission())

	// req and incident are recurrence scratch, dead once the taps are
	// derived; one backing array halves the transient allocations of a
	// design sweep (the taps slice stays separate — it outlives the
	// call inside the returned Chain).
	scratch := make([]float64, 2*n)
	req := scratch[:n] // β_j·Pmin at each destination
	for j, m := range modeOf {
		if j == src || (excluded != nil && excluded[j]) {
			continue
		}
		req[j] = alphas[m] * float64(p.PminUW)
	}

	// Backward recurrence toward the source on each side. incident[j]
	// is the power that must arrive at node j (tap input).
	incident := scratch[n:]
	needLow, needHigh := 0.0, 0.0
	if src > 0 {
		// Walk from the far end (index 0) toward the source.
		carry := 0.0
		for j := 0; j <= src-1; j++ {
			// carry is the power that must continue past node j
			// toward lower indices, measured at node j.
			incident[j] = req[j] + carry
			carry = incident[j] / t
		}
		needLow = carry // power required entering the low side at the source
	}
	if src < n-1 {
		carry := 0.0
		for j := n - 1; j >= src+1; j-- {
			incident[j] = req[j] + carry
			carry = incident[j] / t
		}
		needHigh = carry
	}
	inGuide := needLow + needHigh
	if inGuide <= 0 {
		return nil, fmt.Errorf("splitter: source %d has no reachable destinations", src)
	}

	taps := make([]float64, n)
	for j := 0; j < n; j++ {
		if j == src || incident[j] == 0 {
			continue
		}
		taps[j] = req[j] / incident[j]
		if taps[j] > 1 { // numerical safety; cannot happen analytically
			taps[j] = 1
		}
	}

	chain := waveguide.Chain{Layout: p.Layout, Source: src, Taps: taps, DirLow: 0}
	if inGuide > 0 {
		chain.DirLow = needLow / inGuide
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}

	coupler := p.CouplerLossDB.Linear()
	modePower := make([]phys.MicroWatts, len(alphas))
	for m, a := range alphas {
		modePower[m] = phys.MicroWatts(inGuide / a * coupler)
	}
	return &Design{
		Chain:          chain,
		Alphas:         append([]float64(nil), alphas...),
		ModePowerUW:    modePower,
		InGuideMode0UW: phys.MicroWatts(inGuide),
	}, nil
}

// WorstCaseDesign re-prices a solved design under the worst-case
// (longest-path) insertion-loss accounting used by the optical-crossbar
// comparison literature (Li et al., "Optical Crossbars on Chip",
// arXiv:1512.07492): instead of charging each destination its own path
// transmission T(src,j), every destination is budgeted as if it sat at
// the far end of the serpentine, so
//
//	Pmode_0^wc = Σ_j α_{mode(j)}·Pmin / T_wc(src)
//
// with T_wc the transmission of the longest path from src. The
// fabricated artefacts — taps, direction split, α vector — are exactly
// those of the input design; only the power accounting moves, which is
// what makes worst-vs-average a per-topology Pareto comparison rather
// than a different design.
func WorstCaseDesign(p Params, d *Design, modeOf []int) (*Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := d.Chain.Source
	if len(modeOf) != p.Layout.N {
		return nil, fmt.Errorf("splitter: %d mode entries for %d nodes", len(modeOf), p.Layout.N)
	}
	tWC := float64(p.Layout.WorstPathTransmission(src))
	inGuide := 0.0
	for j, m := range modeOf {
		if j == src {
			if m != -1 {
				return nil, fmt.Errorf("splitter: source %d assigned mode %d, want -1", src, m)
			}
			continue
		}
		if m < 0 || m >= len(d.Alphas) {
			return nil, fmt.Errorf("splitter: destination %d mode %d out of [0,%d)", j, m, len(d.Alphas))
		}
		inGuide += d.Alphas[m] * float64(p.PminUW) / tWC
	}
	if inGuide <= 0 {
		return nil, fmt.Errorf("splitter: source %d has no reachable destinations", src)
	}
	coupler := p.CouplerLossDB.Linear()
	out := *d
	out.Alphas = append([]float64(nil), d.Alphas...)
	out.ModePowerUW = make([]phys.MicroWatts, len(d.Alphas))
	for m, a := range d.Alphas {
		out.ModePowerUW[m] = phys.MicroWatts(inGuide / a * coupler)
	}
	out.InGuideMode0UW = phys.MicroWatts(inGuide)
	return &out, nil
}

// BroadcastDesign is the single-mode (broadcast-only) special case used
// for the base mNoC and for Figures 3 and 6.
func BroadcastDesign(p Params, src int) (*Design, error) {
	modeOf := make([]int, p.Layout.N)
	modeOf[src] = -1
	return SolveWithAlphas(p, src, modeOf, []float64{1})
}

// ReachPower returns the in-guide power needed for src to deliver Pmin
// to exactly the destination set reach (a single-mode topology over a
// subset). Used by the Figure 3 broadcast-distance sweep.
func ReachPower(p Params, src int, reach []int) (phys.MicroWatts, error) {
	if len(reach) == 0 {
		return 0, fmt.Errorf("splitter: empty reach set")
	}
	var sum phys.MicroWatts
	for _, j := range reach {
		if j == src || j < 0 || j >= p.Layout.N {
			return 0, fmt.Errorf("splitter: bad destination %d", j)
		}
		sum += p.PminUW.Over(p.Layout.PathTransmission(src, j))
	}
	return sum, nil
}
