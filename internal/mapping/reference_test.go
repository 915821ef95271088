package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mnoc/internal/splitter"
	"mnoc/internal/workload"
)

// This file holds the differential oracles for the flat swap-delta
// kernel: the textbook [][]float64 forms of the swap delta, the robust
// taboo search and the best-swap scan.

// refSwapDelta is the swap delta written directly over Flow and
// Cost[a[·]][·].
func refSwapDelta(p *Problem, a Assignment, r, s int) float64 {
	ar, as := a[r], a[s]
	d := p.Flow[r][s]*(p.Cost[as][ar]-p.Cost[ar][as]) +
		p.Flow[s][r]*(p.Cost[ar][as]-p.Cost[as][ar])
	for k := 0; k < p.N; k++ {
		if k == r || k == s {
			continue
		}
		ak := a[k]
		d += p.Flow[k][r]*(p.Cost[ak][as]-p.Cost[ak][ar]) +
			p.Flow[k][s]*(p.Cost[ak][ar]-p.Cost[ak][as]) +
			p.Flow[r][k]*(p.Cost[as][ak]-p.Cost[ar][ak]) +
			p.Flow[s][k]*(p.Cost[ar][ak]-p.Cost[as][ak])
	}
	return d
}

// refTaboo is Taillard's robust taboo search over [][]float64 tables
// with Cost indexed through the assignment. It also reports how many
// moves fell back to a random swap because every move was tabu.
func refTaboo(p *Problem, start Assignment, opt TabooOptions) (Assignment, int) {
	n := p.N
	iters := opt.Iterations
	if iters <= 0 {
		iters = 40 * n
	}
	minTenure, maxTenure := int(0.9*float64(n)), int(1.1*float64(n))+1
	rng := rand.New(rand.NewSource(opt.Seed))

	cur := append(Assignment(nil), start...)
	best := append(Assignment(nil), cur...)
	curV := p.Objective(cur)
	bestV := curV
	delta := make([][]float64, n)
	tabuUntil := make([][]int, n)
	for r := range delta {
		delta[r] = make([]float64, n)
		tabuUntil[r] = make([]int, n)
		for s := r + 1; s < n; s++ {
			delta[r][s] = refSwapDelta(p, cur, r, s)
		}
	}
	fallbacks := 0
	for iter := 1; iter <= iters; iter++ {
		bestR, bestS := -1, -1
		bestD := math.Inf(1)
		for r := 0; r < n; r++ {
			for s := r + 1; s < n; s++ {
				d := delta[r][s]
				tabu := iter < tabuUntil[r][cur[s]] || iter < tabuUntil[s][cur[r]]
				aspired := curV+d < bestV-1e-12
				if tabu && !aspired {
					continue
				}
				if d < bestD {
					bestD, bestR, bestS = d, r, s
				}
			}
		}
		if bestR < 0 {
			fallbacks++
			bestR = rng.Intn(n)
			bestS = (bestR + 1 + rng.Intn(n-1)) % n
			if bestR > bestS {
				bestR, bestS = bestS, bestR
			}
			bestD = delta[bestR][bestS]
		}
		u, v := bestR, bestS
		tenure := minTenure + rng.Intn(maxTenure-minTenure)
		tabuUntil[u][cur[u]] = iter + tenure
		tabuUntil[v][cur[v]] = iter + tenure
		cur[u], cur[v] = cur[v], cur[u]
		curV += bestD
		if curV < bestV {
			bestV = curV
			copy(best, cur)
		}
		refRefresh(p, cur, delta, u, v)
	}
	return best, fallbacks
}

// refRefresh is Taillard's delta-table update after cur had u and v
// swapped: pairs touching {u,v} recomputed, the rest updated in O(1).
func refRefresh(p *Problem, cur Assignment, delta [][]float64, u, v int) {
	for r := 0; r < p.N; r++ {
		for s := r + 1; s < p.N; s++ {
			if r == u || r == v || s == u || s == v {
				delta[r][s] = refSwapDelta(p, cur, r, s)
				continue
			}
			ar, as, au, av := cur[r], cur[s], cur[u], cur[v]
			d := delta[r][s]
			d += (p.Flow[r][u] - p.Flow[r][v]) * (p.Cost[as][au] - p.Cost[as][av] + p.Cost[ar][av] - p.Cost[ar][au])
			d += (p.Flow[s][u] - p.Flow[s][v]) * (p.Cost[ar][au] - p.Cost[ar][av] + p.Cost[as][av] - p.Cost[as][au])
			d += (p.Flow[u][r] - p.Flow[v][r]) * (p.Cost[au][as] - p.Cost[av][as] + p.Cost[av][ar] - p.Cost[au][ar])
			d += (p.Flow[u][s] - p.Flow[v][s]) * (p.Cost[au][ar] - p.Cost[av][ar] + p.Cost[av][as] - p.Cost[au][as])
			delta[r][s] = d
		}
	}
}

// refBestSwap is the O(n⁴) best-swap scan: every swap priced with the
// full Objective, lexicographically first strictly largest gain > 0.
func refBestSwap(p *Problem, a Assignment) (int, int, bool) {
	cand := append(Assignment(nil), a...)
	before := p.Objective(cand)
	bestI, bestJ, bestGain := -1, -1, 0.0
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			cand[i], cand[j] = cand[j], cand[i]
			gain := before - p.Objective(cand)
			cand[i], cand[j] = cand[j], cand[i]
			if gain > bestGain {
				bestI, bestJ, bestGain = i, j, gain
			}
		}
	}
	return bestI, bestJ, bestI >= 0
}

// asymmetricProblem draws an asymmetric instance with sparse integer
// flow (so ties in the delta table are common) and real-valued costs.
func asymmetricProblem(t *testing.T, n int, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flow := make([][]float64, n)
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		flow[i] = make([]float64, n)
		cost[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if rng.Intn(3) > 0 {
				flow[i][j] = float64(rng.Intn(9))
			}
			cost[i][j] = 0.5 + rng.Float64()*20
		}
	}
	p, err := NewProblem(flow, cost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func shuffled(n int, seed int64) Assignment {
	a := Identity(n)
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
	return a
}

// TestKernelDeltaBitIdentical checks the flat kernel against the
// textbook forms bit for bit along a chain of committed swaps: every
// swap delta, and the taboo delta table kept up to date by refresh.
func TestKernelDeltaBitIdentical(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17} {
		p := asymmetricProblem(t, n, int64(n))
		a := shuffled(n, int64(n)+1)
		k := p.newKernel(a)
		table := make([]float64, n*n)
		want := make([][]float64, n)
		for r := range want {
			want[r] = make([]float64, n)
			for s := r + 1; s < n; s++ {
				table[r*n+s] = k.delta(r, s)
				want[r][s] = refSwapDelta(p, a, r, s)
			}
		}
		rng := rand.New(rand.NewSource(int64(n) + 2))
		for step := 0; step < 40; step++ {
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					if r == s {
						continue
					}
					if got, want := k.delta(r, s), refSwapDelta(p, a, r, s); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d step %d: delta(%d,%d) = %v, textbook %v", n, step, r, s, got, want)
					}
					if r < s && math.Float64bits(table[r*n+s]) != math.Float64bits(want[r][s]) {
						t.Fatalf("n=%d step %d: table[%d][%d] = %v, textbook %v", n, step, r, s, table[r*n+s], want[r][s])
					}
				}
			}
			u := rng.Intn(n)
			v := (u + 1 + rng.Intn(n-1)) % n
			u, v = min(u, v), max(u, v)
			a[u], a[v] = a[v], a[u]
			k.swap(u, v)
			k.refresh(table, u, v)
			refRefresh(p, a, want, u, v)
		}
	}
}

// TestTabooMatchesReference is the differential test of the flat taboo
// search: the same assignment as the [][]float64 form on random
// asymmetric instances, for several seeds and iteration counts,
// including runs that take the everything-tabu random fallback.
func TestTabooMatchesReference(t *testing.T) {
	fallbacks := 0
	for _, n := range []int{2, 3, 8, 17, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			p := asymmetricProblem(t, n, 100*int64(n)+seed)
			start := shuffled(n, seed)
			for _, iters := range []int{1, 7, 0, 300} {
				opt := TabooOptions{Seed: seed, Iterations: iters}
				want, fb := refTaboo(p, start, opt)
				fallbacks += fb
				got := p.Taboo(start, opt)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d seed=%d iters=%d: taboo %v, reference %v", n, seed, iters, got, want)
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no case exercised the everything-tabu fallback")
	}
}

// TestTabooMatchesReferenceOnPaperInstance repeats the differential
// check on a real workload shape and the serpentine layout.
func TestTabooMatchesReferenceOnPaperInstance(t *testing.T) {
	bench, err := workload.ByName("water_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.Matrix(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromTraffic(m, splitter.DefaultParams(64).Layout)
	if err != nil {
		t.Fatal(err)
	}
	opt := TabooOptions{Seed: 1, Iterations: 500}
	want, _ := refTaboo(p, p.CenterGreedy(), opt)
	if got := p.Taboo(p.CenterGreedy(), opt); !slices.Equal(got, want) {
		t.Fatalf("taboo %v, reference %v", got, want)
	}
}

// TestBestSwapMatchesFullScan compares BestSwap with the full-Objective
// scan on tie-heavy instances (idle threads, two-level symmetric costs,
// uniform traffic), on random ones, and at local optima where no swap
// improves.
func TestBestSwapMatchesFullScan(t *testing.T) {
	twoMode := func(n int, seed int64, idle int) *Problem {
		rng := rand.New(rand.NewSource(seed))
		flow := make([][]float64, n)
		cost := make([][]float64, n)
		for i := range flow {
			flow[i] = make([]float64, n)
			cost[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c := 1.25
				if j-i > n/2 {
					c = 3.5
				}
				cost[i][j], cost[j][i] = c, c
				if i >= idle && j >= idle && rng.Intn(2) == 0 {
					flow[i][j] = float64(1 + rng.Intn(3))
					flow[j][i] = flow[i][j]
				}
			}
		}
		p, err := NewProblem(flow, cost)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	uniform := func(n int) *Problem {
		flow := make([][]float64, n)
		cost := make([][]float64, n)
		for i := range flow {
			flow[i] = make([]float64, n)
			cost[i] = make([]float64, n)
			for j := range flow[i] {
				if i != j {
					flow[i][j], cost[i][j] = 1, 0.1*float64(1+(i+j)%2)
				}
			}
		}
		p, err := NewProblem(flow, cost)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		p    *Problem
	}{
		{"uniform", uniform(12)},
		{"two-mode", twoMode(16, 1, 0)},
		{"idle-threads", twoMode(16, 2, 6)},
		{"mostly-idle", twoMode(24, 3, 20)},
		{"asymmetric-8", asymmetricProblem(t, 8, 4)},
		{"asymmetric-31", asymmetricProblem(t, 31, 5)},
	}
	for _, c := range cases {
		name, p := c.name, c.p
		for trial := int64(0); trial < 4; trial++ {
			a := shuffled(p.N, trial)
			// Greedy descent to a local optimum, comparing every step;
			// the last step checks the "no improving swap" answer.
			for step := 0; ; step++ {
				wi, wj, wok := refBestSwap(p, a)
				gi, gj, gok := p.BestSwap(a)
				if gi != wi || gj != wj || gok != wok {
					t.Fatalf("%s trial %d step %d: BestSwap (%d,%d,%v), full scan (%d,%d,%v)",
						name, trial, step, gi, gj, gok, wi, wj, wok)
				}
				if !wok {
					break
				}
				a[wi], a[wj] = a[wj], a[wi]
			}
		}
	}
}

func ExampleProblem_BestSwap() {
	flow := [][]float64{{0, 5, 0}, {5, 0, 0}, {0, 0, 0}}
	cost := [][]float64{{0, 1, 9}, {1, 0, 9}, {9, 9, 0}}
	p, _ := NewProblem(flow, cost)
	r, s, ok := p.BestSwap(Assignment{0, 2, 1})
	fmt.Println(r, s, ok)
	// Output: 1 2 true
}
