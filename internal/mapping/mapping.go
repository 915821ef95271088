// Package mapping solves the thread-to-core assignment problem of
// Section 4.4. Mapping frequently-communicating threads to cores near
// the middle of the serpentine waveguide (where broadcast power is
// lowest, Fig. 6) is an instance of the quadratic assignment problem
// (QAP); the paper uses Taillard's robust taboo search and Connolly's
// improved simulated annealing, and finds taboo generally best.
//
// The problem minimises Σ flow[t1][t2]·cost[loc(t1)][loc(t2)] over
// permutations, where flow is the thread×thread traffic matrix and cost
// is the core×core single-mode power cost ("the assignment accounts for
// only the waveguide loss between a source and destination").
package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
)

// Problem is a QAP instance.
type Problem struct {
	N    int
	Flow [][]float64 // Flow[t1][t2]: traffic from thread t1 to t2
	Cost [][]float64 // Cost[c1][c2]: power cost of a c1→c2 packet
}

// NewProblem validates and wraps a QAP instance.
func NewProblem(flow, cost [][]float64) (*Problem, error) {
	n := len(flow)
	if n < 2 {
		return nil, fmt.Errorf("mapping: need >= 2 threads, got %d", n)
	}
	if len(cost) != n {
		return nil, fmt.Errorf("mapping: flow is %d×, cost is %d×", n, len(cost))
	}
	for i := 0; i < n; i++ {
		if len(flow[i]) != n || len(cost[i]) != n {
			return nil, fmt.Errorf("mapping: ragged matrix at row %d", i)
		}
	}
	return &Problem{N: n, Flow: flow, Cost: cost}, nil
}

// FromTraffic builds the paper's mapping problem: flow from a traffic
// matrix, cost from the waveguide's single-mode path loss
// (1/transmission, so farther pairs cost exponentially more).
func FromTraffic(m *trace.Matrix, l waveguide.Layout) (*Problem, error) {
	if m.N != l.N {
		return nil, fmt.Errorf("mapping: matrix size %d vs layout %d", m.N, l.N)
	}
	path := l.PathTransmissions()
	cost := make([][]float64, l.N)
	for i := range cost {
		cost[i] = make([]float64, l.N)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 1 / float64(path[abs(i-j)])
			}
		}
	}
	return NewProblem(m.Counts, cost)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Assignment maps thread → core; it is always a permutation.
type Assignment []int

// Identity returns the naive mapping (thread t on core t).
func Identity(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = i
	}
	return a
}

// Validate checks the assignment is a permutation of 0..n-1.
func (a Assignment) Validate(n int) error {
	if len(a) != n {
		return fmt.Errorf("mapping: assignment length %d, want %d", len(a), n)
	}
	seen := make([]bool, n)
	for t, c := range a {
		if c < 0 || c >= n {
			return fmt.Errorf("mapping: thread %d on core %d out of range", t, c)
		}
		if seen[c] {
			return fmt.Errorf("mapping: core %d used twice", c)
		}
		seen[c] = true
	}
	return nil
}

// Objective evaluates the QAP cost of an assignment.
func (p *Problem) Objective(a Assignment) float64 {
	sum := 0.0
	for i := 0; i < p.N; i++ {
		fi, ci := p.Flow[i], p.Cost[a[i]]
		for j := 0; j < p.N; j++ {
			if v := fi[j]; v != 0 {
				sum += v * ci[a[j]]
			}
		}
	}
	return sum
}

// kernel is the flat swap-delta state shared by the QAP searches. It
// holds Flow and its transpose, and the cost matrix permuted by the
// current assignment, b[k·n+l] = Cost[cur[k]][cur[l]], and its
// transpose, all n×n row-major. Every swap delta then reads contiguous
// rows with no assignment indirection, and a committed swap exchanges
// rows and columns u, v of b and bt in O(n).
type kernel struct {
	n     int
	f, ft []float64
	b, bt []float64
	tmp   []float64 // 4n scratch for refresh
}

func (p *Problem) newKernel(a Assignment) kernel {
	n := p.N
	buf := make([]float64, 4*n*n+4*n)
	k := kernel{n: n,
		f: buf[:n*n], ft: buf[n*n : 2*n*n],
		b: buf[2*n*n : 3*n*n], bt: buf[3*n*n : 4*n*n],
		tmp: buf[4*n*n:],
	}
	for i := 0; i < n; i++ {
		fi, ci := p.Flow[i], p.Cost[a[i]]
		for j := 0; j < n; j++ {
			k.f[i*n+j], k.ft[j*n+i] = fi[j], fi[j]
			k.b[i*n+j], k.bt[j*n+i] = ci[a[j]], ci[a[j]]
		}
	}
	return k
}

func (k *kernel) row(m []float64, i int) []float64 { return m[i*k.n : (i+1)*k.n] }

// delta is the objective change of swapping the cores of threads r and
// s (general asymmetric form, O(n)). Its expression and summation order
// are those of the same sum written over Flow and Cost[cur[·]][·], so
// the value is bit-identical to that form.
func (k *kernel) delta(r, s int) float64 {
	fr, fs := k.row(k.f, r), k.row(k.f, s)
	ftr, fts := k.row(k.ft, r), k.row(k.ft, s)
	br, bs := k.row(k.b, r), k.row(k.b, s)
	btr, bts := k.row(k.bt, r), k.row(k.bt, s)
	d := fr[s]*(bs[r]-br[s]) + fs[r]*(br[s]-bs[r])
	fs, ftr, fts = fs[:len(fr)], ftr[:len(fr)], fts[:len(fr)]
	br, bs, btr, bts = br[:len(fr)], bs[:len(fr)], btr[:len(fr)], bts[:len(fr)]
	for j := range fr {
		if j == r || j == s {
			continue
		}
		d += ftr[j]*(bts[j]-btr[j]) +
			fts[j]*(btr[j]-bts[j]) +
			fr[j]*(bs[j]-br[j]) +
			fs[j]*(br[j]-bs[j])
	}
	return d
}

// swap commits the exchange of threads u and v: rows and columns u, v
// of the permuted cost and of its transpose trade places.
func (k *kernel) swap(u, v int) {
	for _, m := range [2][]float64{k.b, k.bt} {
		ru, rv := k.row(m, u), k.row(m, v)
		for j := range ru {
			ru[j], rv[j] = rv[j], ru[j]
		}
		for i := u; i < len(m); i += k.n {
			m[i], m[i+v-u] = m[i+v-u], m[i]
		}
	}
}

// refresh brings the cached swap deltas delta[r·n+s] (r < s) up to
// date after swap(u, v). Pairs touching {u, v} are recomputed; the rest
// get Taillard's O(1) incremental update, read off the already-swapped
// permuted cost (row u of b is thread u's new row). Each update keeps
// the textbook expression and its evaluation order, so the table stays
// bit-identical to one maintained over Flow and Cost[cur[·]][·].
func (k *kernel) refresh(delta []float64, u, v int) {
	n := k.n
	// x[i] = Flow[i][u]−Flow[i][v], y[i] = Flow[u][i]−Flow[v][i], and
	// the matching differences of the permuted cost's columns and rows.
	x, y, cuv, ruv := k.tmp[:n], k.tmp[n:2*n], k.tmp[2*n:3*n], k.tmp[3*n:4*n]
	ftu, ftv, fu, fv := k.row(k.ft, u), k.row(k.ft, v), k.row(k.f, u), k.row(k.f, v)
	btu, btv, bu, bv := k.row(k.bt, u), k.row(k.bt, v), k.row(k.b, u), k.row(k.b, v)
	for i := range x {
		x[i] = ftu[i] - ftv[i]
		y[i] = fu[i] - fv[i]
		cuv[i] = btu[i] - btv[i]
		ruv[i] = bu[i] - bv[i]
	}
	for r := 0; r < n; r++ {
		dr := delta[r*n : (r+1)*n]
		if r == u || r == v {
			for s := r + 1; s < n; s++ {
				dr[s] = k.delta(r, s)
			}
			continue
		}
		xr, yr, cr, rr := x[r], y[r], cuv[r], ruv[r]
		btur, btvr, bur, bvr := btu[r], btv[r], bu[r], bv[r]
		for s := r + 1; s < len(dr); s++ {
			if s == u || s == v {
				dr[s] = k.delta(r, s)
				continue
			}
			d := dr[s]
			d += xr * (cuv[s] + btvr - btur)
			d += x[s] * (cr + btv[s] - btu[s])
			d += yr * (ruv[s] + bvr - bur)
			d += y[s] * (rr + bv[s] - bu[s])
			dr[s] = d
		}
	}
}

// TabooOptions tunes the robust taboo search.
type TabooOptions struct {
	// Iterations is the number of moves to perform (default 40·n).
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
}

// Taboo runs Taillard's robust taboo search from the given start
// assignment (copied, not mutated) and returns the best found. The
// tabu tenure is drawn uniformly from [0.9·n, 1.1·n] per move
// (Taillard's robust scheme).
func (p *Problem) Taboo(start Assignment, opt TabooOptions) Assignment {
	n := p.N
	iters := opt.Iterations
	if iters <= 0 {
		iters = 40 * n
	}
	minTenure := int(0.9 * float64(n))
	maxTenure := int(1.1*float64(n)) + 1
	rng := rand.New(rand.NewSource(opt.Seed))

	cur := append(Assignment(nil), start...)
	best := append(Assignment(nil), cur...)
	curV := p.Objective(cur)
	bestV := curV
	k := p.newKernel(cur)

	// delta[r·n+s] caches the swap delta of (r, s) for r < s.
	delta := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for s := r + 1; s < n; s++ {
			delta[r*n+s] = k.delta(r, s)
		}
	}
	// tabuUntil[t·n+c] forbids placing thread t back on core c until the
	// stored iteration.
	tabuUntil := make([]int, n*n)

	for iter := 1; iter <= iters; iter++ {
		bestR, bestS := -1, -1
		bestD := math.Inf(1)
		for r := 0; r < n; r++ {
			dr, tr := delta[r*n:(r+1)*n], tabuUntil[r*n:(r+1)*n]
			for s := r + 1; s < n; s++ {
				d := dr[s]
				tabu := iter < tr[cur[s]] || iter < tabuUntil[s*n+cur[r]]
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
			// Everything tabu: pick a random move to keep going.
			bestR = rng.Intn(n)
			bestS = (bestR + 1 + rng.Intn(n-1)) % n
			if bestR > bestS {
				bestR, bestS = bestS, bestR
			}
			bestD = delta[bestR*n+bestS]
		}

		u, v := bestR, bestS
		tenure := minTenure + rng.Intn(maxTenure-minTenure)
		tabuUntil[u*n+cur[u]] = iter + tenure
		tabuUntil[v*n+cur[v]] = iter + tenure

		cur[u], cur[v] = cur[v], cur[u]
		k.swap(u, v)
		curV += bestD
		if curV < bestV {
			bestV = curV
			copy(best, cur)
		}

		k.refresh(delta, u, v)
	}
	return best
}

// BestSwap returns the swap r < s of assignment a that lowers the
// objective most, chosen exactly as a full scan does it: price every
// swap as Objective(a) − Objective(a with r, s swapped) and keep the
// lexicographically first strictly largest gain above zero. ok is false
// when no swap improves.
//
// The scan costs O(n³), not O(n⁴): every swap is screened with the O(n)
// delta, and only the swaps whose screened gain lies within tol of the
// best are re-priced with the full Objective. With S = Σ|Flow|·max|Cost|
// bounding every term sum, each Objective is off by at most n²·u·S and
// each delta by (8n+8)·u·S (u = 2⁻⁵³, recursive summation), so a
// screened gain is within tol/2 of the scan's gain whenever
// tol ≥ 16·n²·ε·S. Every swap the scan could pick then passes the
// screen, and a swap screened below −tol/2 cannot have a positive
// scanned gain.
func (p *Problem) BestSwap(a Assignment) (r, s int, ok bool) {
	n := p.N
	k := p.newKernel(a)
	var flowSum, costMax float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			flowSum += math.Abs(p.Flow[i][j])
			costMax = math.Max(costMax, math.Abs(p.Cost[i][j]))
		}
	}
	tol := flowSum * costMax * math.Max(1e-9, 16*float64(n*n)*0x1p-52)

	// gain[i·n+j] is the screened gain of swap (i, j), i < j.
	gain := make([]float64, n*n)
	top := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g := -k.delta(i, j)
			gain[i*n+j] = g
			top = math.Max(top, g)
		}
	}
	floor := math.Max(top-tol, -tol/2)

	cand := append(Assignment(nil), a...)
	before := p.Objective(cand)
	r, s = -1, -1
	bestGain := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if gain[i*n+j] < floor {
				continue
			}
			cand[i], cand[j] = cand[j], cand[i]
			g := before - p.Objective(cand)
			cand[i], cand[j] = cand[j], cand[i]
			if g > bestGain {
				r, s, bestGain = i, j, g
			}
		}
	}
	return r, s, r >= 0
}

// AnnealOptions tunes the simulated annealing run.
type AnnealOptions struct {
	// Iterations is the number of attempted moves (default 200·n).
	Iterations int
	Seed       int64
}

func (o *AnnealOptions) fill(n int) {
	if o.Iterations <= 0 {
		o.Iterations = 200 * n
	}
}

// Anneal runs Connolly-style simulated annealing: the initial and final
// temperatures are derived from sampled move deltas and the temperature
// follows the T/(1+βT) cooling schedule.
func (p *Problem) Anneal(start Assignment, opt AnnealOptions) Assignment {
	opt.fill(p.N)
	rng := rand.New(rand.NewSource(opt.Seed))
	n := p.N

	cur := append(Assignment(nil), start...)
	best := append(Assignment(nil), cur...)
	curV := p.Objective(cur)
	bestV := curV
	k := p.newKernel(cur)

	// Sample deltas to pick Connolly's T0 = Δmin + (Δmax−Δmin)/10 and
	// Tf = Δmin.
	dmin, dmax := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2*n; i++ {
		r := rng.Intn(n)
		s := (r + 1 + rng.Intn(n-1)) % n
		d := math.Abs(k.delta(r, s))
		if d == 0 {
			continue
		}
		if d < dmin {
			dmin = d
		}
		if d > dmax {
			dmax = d
		}
	}
	if math.IsInf(dmin, 1) { // completely flat landscape
		return best
	}
	t0 := dmin + (dmax-dmin)/10
	tf := dmin
	beta := (t0 - tf) / (float64(opt.Iterations) * t0 * tf)
	temp := t0

	for iter := 0; iter < opt.Iterations; iter++ {
		r := rng.Intn(n)
		s := (r + 1 + rng.Intn(n-1)) % n
		d := k.delta(r, s)
		if d < 0 || rng.Float64() < math.Exp(-d/temp) {
			cur[r], cur[s] = cur[s], cur[r]
			k.swap(r, s)
			curV += d
			if curV < bestV {
				bestV = curV
				copy(best, cur)
			}
		}
		temp = temp / (1 + beta*temp)
	}
	return best
}

// CenterGreedy is a fast constructive heuristic: threads sorted by total
// traffic are placed onto cores sorted by their broadcast-power rank
// (middle of the waveguide first). It is both a baseline and a good
// taboo start.
func (p *Problem) CenterGreedy() Assignment {
	n := p.N
	// Thread heat: total in+out traffic.
	heat := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			heat[i] += p.Flow[i][j] + p.Flow[j][i]
		}
	}
	threads := Identity(n)
	sortByDesc(threads, heat)

	// Core cheapness: total cost to reach everyone (Fig. 6 profile).
	coreCost := make([]float64, n)
	for c := 0; c < n; c++ {
		for d := 0; d < n; d++ {
			coreCost[c] += p.Cost[c][d]
		}
	}
	cores := Identity(n)
	sortByAsc(cores, coreCost)

	a := make(Assignment, n)
	for rank, t := range threads {
		a[t] = cores[rank]
	}
	return a
}

func sortByDesc(idx []int, key []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] > key[idx[b]]
		}
		return idx[a] < idx[b]
	})
}

func sortByAsc(idx []int, key []float64) {
	sort.Slice(idx, func(a, b int) bool {
		if key[idx[a]] != key[idx[b]] {
			return key[idx[a]] < key[idx[b]]
		}
		return idx[a] < idx[b]
	})
}
