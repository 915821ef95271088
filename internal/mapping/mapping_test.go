package mapping

import (
	"math"
	"math/rand"
	"testing"

	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
	"mnoc/internal/workload"
)

func randomProblem(t *testing.T, n int, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			flow[i][j] = float64(rng.Intn(20))
			cost[i][j] = 1 + rng.Float64()*10
		}
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemRejections(t *testing.T) {
	if _, err := NewProblem([][]float64{{0}}, [][]float64{{0}}); err == nil {
		t.Error("1-thread problem accepted")
	}
	if _, err := NewProblem(make([][]float64, 3), make([][]float64, 2)); err == nil {
		t.Error("mismatched sizes accepted")
	}
	flow := [][]float64{{0, 1}, {1, 0}}
	ragged := [][]float64{{0, 1}, {1}}
	if _, err := NewProblem(flow, ragged); err == nil {
		t.Error("ragged cost accepted")
	}
}

func TestIdentityAndValidate(t *testing.T) {
	a := Identity(5)
	if err := a.Validate(5); err != nil {
		t.Fatal(err)
	}
	bad := Assignment{0, 0, 1, 2, 3}
	if err := bad.Validate(5); err == nil {
		t.Error("duplicate core accepted")
	}
	if err := Identity(4).Validate(5); err == nil {
		t.Error("short assignment accepted")
	}
	if err := (Assignment{0, 1, 2, 3, 9}).Validate(5); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestSwapDeltaMatchesObjective(t *testing.T) {
	p := randomProblem(t, 12, 3)
	a := Identity(12)
	k := p.newKernel(a)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		r := rng.Intn(12)
		s := (r + 1 + rng.Intn(11)) % 12
		before := p.Objective(a)
		d := k.delta(r, s)
		a[r], a[s] = a[s], a[r]
		k.swap(r, s)
		after := p.Objective(a)
		if math.Abs((after-before)-d) > 1e-6*math.Max(1, math.Abs(d)) {
			t.Fatalf("trial %d: delta %v, actual %v", trial, d, after-before)
		}
	}
}

func TestTabooImprovesOverIdentity(t *testing.T) {
	p := randomProblem(t, 20, 5)
	id := Identity(20)
	got := p.Taboo(id, TabooOptions{Seed: 1, Iterations: 500})
	if err := got.Validate(20); err != nil {
		t.Fatal(err)
	}
	if p.Objective(got) >= p.Objective(id) {
		t.Errorf("taboo did not improve: %v >= %v", p.Objective(got), p.Objective(id))
	}
}

// TestTabooFindsOptimumOnTinyInstance is the exhaustive oracle: on
// every n ≤ 8 instance, robust taboo with default settings reaches the
// optimum over all n! permutations.
func TestTabooFindsOptimumOnTinyInstance(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for seed := int64(1); seed <= 3; seed++ {
			p := asymmetricProblem(t, n, 1000*int64(n)+seed)
			best := math.Inf(1)
			perm := Identity(n)
			var rec func(k int)
			rec = func(k int) {
				if k == n {
					best = math.Min(best, p.Objective(perm))
					return
				}
				for i := k; i < n; i++ {
					perm[k], perm[i] = perm[i], perm[k]
					rec(k + 1)
					perm[k], perm[i] = perm[i], perm[k]
				}
			}
			rec(0)
			got := p.Objective(p.Taboo(shuffled(n, seed), TabooOptions{Seed: seed}))
			if math.Abs(got-best) > 1e-9*math.Max(1, best) {
				t.Errorf("n=%d seed=%d: taboo found %v, optimum %v", n, seed, got, best)
			}
		}
	}
}

func TestTabooDeterministic(t *testing.T) {
	p := randomProblem(t, 16, 8)
	a := p.Taboo(Identity(16), TabooOptions{Seed: 7, Iterations: 300})
	b := p.Taboo(Identity(16), TabooOptions{Seed: 7, Iterations: 300})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("taboo not deterministic for equal seeds")
		}
	}
}

func TestAnnealImprovesOverIdentity(t *testing.T) {
	p := randomProblem(t, 20, 6)
	id := Identity(20)
	got := p.Anneal(id, AnnealOptions{Seed: 3, Iterations: 4000})
	if err := got.Validate(20); err != nil {
		t.Fatal(err)
	}
	if p.Objective(got) >= p.Objective(id) {
		t.Errorf("anneal did not improve: %v >= %v", p.Objective(got), p.Objective(id))
	}
}

func TestAnnealHandlesFlatLandscape(t *testing.T) {
	n := 6
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Anneal(Identity(n), AnnealOptions{Seed: 1})
	if err := got.Validate(n); err != nil {
		t.Fatal(err)
	}
}

func TestCenterGreedyPlacesHotThreadsOnCheapCores(t *testing.T) {
	// Build a problem where thread 0 is by far the hottest and core 2
	// (of 5) is by far the cheapest.
	n := 5
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 10
			}
		}
	}
	flow[0][1], flow[0][3] = 100, 100
	for j := 0; j < n; j++ {
		if j != 2 {
			cost[2][j] = 1
		}
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	a := p.CenterGreedy()
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	if a[0] != 2 {
		t.Errorf("hottest thread on core %d, want 2", a[0])
	}
}

func TestFromTrafficCostsGrowWithDistance(t *testing.T) {
	m := trace.NewMatrix(16)
	p, err := FromTraffic(m, waveguide.NewSerpentine(16))
	if err != nil {
		t.Fatal(err)
	}
	if !(p.Cost[0][15] > p.Cost[0][1]) {
		t.Errorf("far cost %v not above near cost %v", p.Cost[0][15], p.Cost[0][1])
	}
	if p.Cost[3][3] != 0 {
		t.Errorf("self cost = %v, want 0", p.Cost[3][3])
	}
	if _, err := FromTraffic(trace.NewMatrix(8), waveguide.NewSerpentine(16)); err == nil {
		t.Error("size mismatch accepted")
	}
}

// TestSolveConcentratesTrafficAtWaveguideCenter reproduces the paper's
// qualitative Fig. 7 result on a real workload shape: after QAP mapping,
// traffic-weighted positions move toward the middle of the waveguide.
func TestSolveConcentratesTrafficAtWaveguideCenter(t *testing.T) {
	n := 64
	bench, err := workload.ByName("water_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.Matrix(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := FromTraffic(m, waveguide.NewSerpentine(n))
	if err != nil {
		t.Fatal(err)
	}
	a := prob.Taboo(prob.CenterGreedy(), TabooOptions{Seed: 1, Iterations: 800})
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	naive := Identity(n)
	if got, want := prob.Objective(a), prob.Objective(naive); got >= want {
		t.Fatalf("QAP objective %v not below naive %v", got, want)
	}

	center := float64(n-1) / 2
	spread := func(asgn Assignment) float64 {
		num, den := 0.0, 0.0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				v := m.Counts[s][d]
				if v == 0 {
					continue
				}
				num += v * (math.Abs(float64(asgn[s])-center) + math.Abs(float64(asgn[d])-center))
				den += v
			}
		}
		return num / den
	}
	if sm, sn := spread(a), spread(naive); sm >= sn {
		t.Errorf("mapped spread %v not tighter than naive %v", sm, sn)
	}
}

func TestObjectiveInvariantUnderRelabeling(t *testing.T) {
	// Objective of identity on permuted flow equals objective of the
	// permutation on original flow (consistency between Permute and
	// Assignment semantics).
	n := 8
	rng := rand.New(rand.NewSource(12))
	m := trace.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Counts[i][j] = float64(rng.Intn(10))
			}
		}
	}
	layout := waveguide.NewSerpentine(n)
	p, err := FromTraffic(m, layout)
	if err != nil {
		t.Fatal(err)
	}
	perm := Assignment{3, 1, 4, 0, 7, 2, 6, 5}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FromTraffic(pm, layout)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Objective(perm)
	b := p2.Objective(Identity(n))
	if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
		t.Errorf("objective mismatch: %v vs %v", a, b)
	}
}

// TestTabooAllocationCount pins Taboo's allocations on the
// BenchmarkQAPTaboo input (radix-64 water_spatial, 100 moves): the
// search allocates its state once up front, and no move may allocate.
func TestTabooAllocationCount(t *testing.T) {
	bench, err := workload.ByName("water_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.Matrix(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromTraffic(m, waveguide.NewSerpentine(64))
	if err != nil {
		t.Fatal(err)
	}
	start := p.CenterGreedy()
	allocs := testing.AllocsPerRun(20, func() {
		p.Taboo(start, TabooOptions{Seed: 1, Iterations: 100})
	})
	if allocs != 6 {
		t.Errorf("Taboo allocates %.0f times per call, want 6", allocs)
	}
}
