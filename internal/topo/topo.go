// Package topo defines power topologies (Section 3.1) and the builders
// the paper architects with (Section 4): mappings of conventional
// topologies (clustered, Fig. 5a), distance-based topologies (Fig. 5b),
// communication-aware topologies (Section 4.3), and application-specific
// designs (Section 5.5).
//
// A global power topology assigns, for every source, each destination to
// one of M ordered power modes. Mode 0 is the lowest power; mode M−1 is
// broadcast. The paper's nesting invariant (destinations of a low mode
// stay reachable in every higher mode) is inherent in this
// representation: a destination assigned mode m is reachable in all
// modes ≥ m by construction of the splitter design.
package topo

import (
	"fmt"
	"io"
	"sort"

	"mnoc/internal/phys"
	"mnoc/internal/splitter"
	"mnoc/internal/trace"
)

// Topology is a global power topology for an N-node SWMR crossbar.
type Topology struct {
	N     int
	Modes int
	// ModeOf[src][dst] is the lowest power mode in which src reaches
	// dst, in [0, Modes). ModeOf[src][src] is -1.
	ModeOf [][]int
	// Name labels the design for experiment output (e.g. "2M_N_U").
	Name string
}

// New allocates a topology with every destination in the highest mode.
func New(n, modes int, name string) *Topology {
	t := &Topology{N: n, Modes: modes, Name: name, ModeOf: make([][]int, n)}
	flat := make([]int, n*n)
	for s := range t.ModeOf {
		t.ModeOf[s], flat = flat[:n], flat[n:]
		for d := range t.ModeOf[s] {
			t.ModeOf[s][d] = modes - 1
		}
		t.ModeOf[s][s] = -1
	}
	return t
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if t.N < 2 {
		return fmt.Errorf("topo: N = %d", t.N)
	}
	if t.Modes < 1 {
		return fmt.Errorf("topo: %d modes", t.Modes)
	}
	if len(t.ModeOf) != t.N {
		return fmt.Errorf("topo: %d rows for %d nodes", len(t.ModeOf), t.N)
	}
	for s, row := range t.ModeOf {
		if len(row) != t.N {
			return fmt.Errorf("topo: row %d has %d entries", s, len(row))
		}
		for d, m := range row {
			if d == s {
				if m != -1 {
					return fmt.Errorf("topo: ModeOf[%d][%d] = %d, want -1", s, d, m)
				}
				continue
			}
			if m < 0 || m >= t.Modes {
				return fmt.Errorf("topo: ModeOf[%d][%d] = %d out of [0,%d)", s, d, m, t.Modes)
			}
		}
	}
	return nil
}

// ModeSizes returns, for source src, the number of destinations in each
// mode.
func (t *Topology) ModeSizes(src int) []int {
	sizes := make([]int, t.Modes)
	for d, m := range t.ModeOf[src] {
		if d == src {
			continue
		}
		sizes[m]++
	}
	return sizes
}

// TrafficModeWeights returns, for source src, the fraction of its
// traffic (per m) that travels in each power mode. If the source has no
// traffic the weights are uniform.
func (t *Topology) TrafficModeWeights(m *trace.Matrix, src int) ([]float64, error) {
	if m.N != t.N {
		return nil, fmt.Errorf("topo: matrix size %d vs topology %d", m.N, t.N)
	}
	w := make([]float64, t.Modes)
	total := 0.0
	for d, v := range m.Counts[src] {
		if d == src || v == 0 {
			continue
		}
		w[t.ModeOf[src][d]] += v
		total += v
	}
	if total == 0 {
		return UniformWeights(t.Modes), nil
	}
	for i := range w {
		w[i] /= total
	}
	return w, nil
}

// UniformWeights is the "U" splitter-design weighting of Table 5: equal
// communication assumed in every mode.
func UniformWeights(modes int) []float64 {
	w := make([]float64, modes)
	for i := range w {
		w[i] = 1 / float64(modes)
	}
	return w
}

// SingleMode is the base mNoC: one broadcast mode (the "1M" design).
func SingleMode(n int) *Topology {
	return New(n, 1, "1M")
}

// Clustered maps the conventional clustered topology onto a 2-mode power
// topology (Fig. 5a): destinations in the source's cluster of
// clusterSize consecutive nodes are in the low mode, all others in the
// high mode.
func Clustered(n, clusterSize int) (*Topology, error) {
	if n <= clusterSize {
		// One cluster would hold every node, leaving the high mode
		// nobody to reach.
		return nil, fmt.Errorf("topo: %d nodes fit in one cluster of %d; a clustered design needs at least two clusters", n, clusterSize)
	}
	if clusterSize < 2 || n%clusterSize != 0 {
		return nil, fmt.Errorf("topo: cluster size %d does not divide %d nodes", clusterSize, n)
	}
	t := New(n, 2, fmt.Sprintf("2M_cluster%d", clusterSize))
	for s := 0; s < n; s++ {
		cluster := s / clusterSize
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			if d/clusterSize == cluster {
				t.ModeOf[s][d] = 0
			} else {
				t.ModeOf[s][d] = 1
			}
		}
	}
	return t, nil
}

// DistanceBased builds the naive distance-based topology of Fig. 5b and
// Section 5.2: for each source, destinations sorted by waveguide
// distance are grouped into len(groupSizes) modes of the given sizes
// (nearest group first). The sizes must sum to n−1.
func DistanceBased(n int, groupSizes []int) (*Topology, error) {
	sum := 0
	for _, g := range groupSizes {
		if g <= 0 {
			return nil, fmt.Errorf("topo: non-positive group size %d", g)
		}
		sum += g
	}
	if sum != n-1 {
		return nil, fmt.Errorf("topo: group sizes sum to %d, want %d", sum, n-1)
	}
	t := New(n, len(groupSizes), fmt.Sprintf("%dM_N", len(groupSizes)))
	for s := 0; s < n; s++ {
		order := byDistance(n, s)
		assignSorted(t.ModeOf[s], order, groupSizes)
	}
	return t, nil
}

// DistanceModes builds the paper's evaluated distance-based topologies
// scaled to n nodes: for 2 modes the nearest half of the destinations
// share the low mode (the paper's "128 closest destinations"), for 4
// they form groups of a quarter each, nearest first ("groups of 64
// nearest nodes").
func DistanceModes(n, modes int) (*Topology, error) {
	if modes != 2 && modes != 4 {
		return nil, fmt.Errorf("topo: distance-based designs have 2 or 4 modes, got %d", modes)
	}
	if err := enoughNodes(n, modes, "distance-based"); err != nil {
		return nil, err
	}
	if modes == 2 {
		return DistanceBased(n, []int{n / 2, n - 1 - n/2})
	}
	q := n / 4
	return DistanceBased(n, []int{q, q, q, n - 1 - 3*q})
}

// enoughNodes reports an error when n nodes leave fewer destinations
// per source than a design of the named family has modes, so that some
// mode would reach nobody.
func enoughNodes(n, modes int, family string) error {
	if n <= modes {
		return fmt.Errorf("topo: a %d-mode %s design needs at least %d nodes, got %d", modes, family, modes+1, n)
	}
	return nil
}

// byDistance lists all destinations of source s ordered by |d−s|
// (ties broken toward the lower index, deterministically).
func byDistance(n, s int) []int {
	order := make([]int, 0, n-1)
	for d := 0; d < n; d++ {
		if d != s {
			order = append(order, d)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := abs(order[i]-s), abs(order[j]-s)
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// assignSorted writes mode indices into row following the sorted
// destination order and group sizes.
func assignSorted(row []int, order []int, groupSizes []int) {
	idx := 0
	for mode, g := range groupSizes {
		for k := 0; k < g; k++ {
			row[order[idx]] = mode
			idx++
		}
	}
}

// CommAware2Mode builds the communication-aware 2-mode topology of
// Section 4.3: per source, destinations are sorted by descending traffic
// frequency, then all N−2 binary partitions of the sorted list are swept
// and the one with the lowest expected source power (Equation 1, with
// per-partition traffic weights and the optimal α) is kept.
func CommAware2Mode(m *trace.Matrix, p splitter.Params, name string) (*Topology, error) {
	if m.N != p.Layout.N {
		return nil, fmt.Errorf("topo: matrix size %d vs layout %d", m.N, p.Layout.N)
	}
	n := m.N
	// The sweep needs a destination in each mode.
	if err := enoughNodes(n, 2, "communication-aware"); err != nil {
		return nil, err
	}
	t := New(n, 2, name)
	path := p.Layout.PathTransmissions()
	for s := 0; s < n; s++ {
		order := byBenefit(m, p, s)
		bestCut, bestPower := -1, phys.MicroWatts(0)

		// Incremental sweep: moving the cut right moves one more
		// destination from the high mode into the low mode.
		var lowCost, highCost phys.MicroWatts
		lowTraffic, highTraffic := 0.0, 0.0
		for _, d := range order {
			highCost += p.PminUW.Over(path[abs(s-d)])
			highTraffic += m.Counts[s][d]
		}
		for cut := 1; cut <= n-2; cut++ {
			d := order[cut-1]
			c := p.PminUW.Over(path[abs(s-d)])
			lowCost += c
			highCost -= c
			lowTraffic += m.Counts[s][d]
			highTraffic -= m.Counts[s][d]

			weights := partitionWeights(lowTraffic, highTraffic)
			costs := []phys.MicroWatts{lowCost, highCost}
			alphas := splitter.OptimalAlphasTwoMode(costs, weights)
			power := splitter.WeightedPowerForAlphas(costs, alphas, weights)
			if bestCut == -1 || power < bestPower {
				bestCut, bestPower = cut, power
			}
		}
		assignSorted(t.ModeOf[s], order, []int{bestCut, n - 1 - bestCut})
	}
	return t, nil
}

// partitionWeights converts low/high traffic volumes into design
// weights, defaulting to uniform when the source is silent.
func partitionWeights(low, high float64) []float64 {
	tot := low + high
	if tot == 0 {
		return []float64{0.5, 0.5}
	}
	return []float64{low / tot, high / tot}
}

// CommAware builds a communication-aware topology with an arbitrary
// number of modes: destinations sorted by descending traffic frequency
// are partitioned into the given group sizes (most frequent into mode
// 0). The paper's best 4-mode heuristic uses partition {4,120,53,78}
// (Section 4.3).
func CommAware(m *trace.Matrix, groupSizes []int, name string) (*Topology, error) {
	n := m.N
	sum := 0
	for _, g := range groupSizes {
		if g <= 0 {
			return nil, fmt.Errorf("topo: non-positive group size %d", g)
		}
		sum += g
	}
	if sum != n-1 {
		return nil, fmt.Errorf("topo: group sizes sum to %d, want %d", sum, n-1)
	}
	t := New(n, len(groupSizes), name)
	for s := 0; s < n; s++ {
		assignSorted(t.ModeOf[s], byFrequency(m, s), groupSizes)
	}
	return t, nil
}

// Paper4ModePartition is the best manual 4-mode partition the paper
// found ("{4,120,53,78} … found the latter to be best"), scaled from 255
// destinations. For other radices use ScalePartition.
var Paper4ModePartition = []int{4, 120, 53, 78}

// ScalePartition rescales a destination partition to n−1 destinations,
// preserving proportions (remainders go to the last group).
func ScalePartition(part []int, n int) []int {
	total := 0
	for _, g := range part {
		total += g
	}
	out := make([]int, len(part))
	assigned := 0
	for i, g := range part {
		out[i] = g * (n - 1) / total
		if out[i] < 1 {
			out[i] = 1
		}
		assigned += out[i]
	}
	out[len(out)-1] += (n - 1) - assigned
	if out[len(out)-1] < 1 {
		// Pathologically small n: rebuild as an even split.
		even := (n - 1) / len(part)
		assigned = 0
		for i := range out {
			out[i] = even
			if out[i] < 1 {
				out[i] = 1
			}
			assigned += out[i]
		}
		out[len(out)-1] += (n - 1) - assigned
	}
	return out
}

// CommAwareScored is CommAware with the cost-weighted ordering of
// byBenefit: destinations are ranked by traffic frequency scaled by
// their waveguide transmission, so keeping a far destination in a low
// mode must be justified by proportionally more traffic. With a uniform
// profile the ordering degenerates to distance order, so scored designs
// never do worse than the distance-based topology they generalise —
// the property behind the paper's "manual greedy assignment" for the
// 4-mode designs.
func CommAwareScored(m *trace.Matrix, p splitter.Params, groupSizes []int, name string) (*Topology, error) {
	if m.N != p.Layout.N {
		return nil, fmt.Errorf("topo: matrix size %d vs layout %d", m.N, p.Layout.N)
	}
	n := m.N
	sum := 0
	for _, g := range groupSizes {
		if g <= 0 {
			return nil, fmt.Errorf("topo: non-positive group size %d", g)
		}
		sum += g
	}
	if sum != n-1 {
		return nil, fmt.Errorf("topo: group sizes sum to %d, want %d", sum, n-1)
	}
	t := New(n, len(groupSizes), name)
	for s := 0; s < n; s++ {
		assignSorted(t.ModeOf[s], byBenefit(m, p, s), groupSizes)
	}
	return t, nil
}

// CandidatePartitions4 returns the 4-mode destination partitions the
// paper considered ("such as {64,64,64,63}, {1,1,2,251}, {4,120,53,78}"),
// scaled to n destinations, plus the even split.
func CandidatePartitions4(n int) [][]int {
	raw := [][]int{
		{64, 64, 64, 63},
		{1, 1, 2, 251},
		Paper4ModePartition,
		{16, 48, 96, 95},
	}
	out := make([][]int, 0, len(raw))
	for _, p := range raw {
		out = append(out, ScalePartition(p, n))
	}
	return out
}

// BestScoredPartition builds a scored communication-aware topology for
// every candidate partition and keeps the one with the lowest expected
// source power on the profiling matrix — the paper's "manual greedy
// assignment" over candidate partitions, automated.
func BestScoredPartition(m *trace.Matrix, p splitter.Params, candidates [][]int, name string) (*Topology, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("topo: no candidate partitions")
	}
	var best *Topology
	bestPower := phys.MicroWatts(0)
	for _, part := range candidates {
		t, err := CommAwareScored(m, p, part, name)
		if err != nil {
			return nil, err
		}
		var total phys.MicroWatts
		for s := 0; s < m.N; s++ {
			w, err := t.TrafficModeWeights(m, s)
			if err != nil {
				return nil, err
			}
			costs, err := splitter.ModeCosts(p, s, t.ModeOf[s], t.Modes)
			if err != nil {
				return nil, err
			}
			alphas := splitter.OptimalAlphas(costs, w)
			total += splitter.WeightedPowerForAlphas(costs, alphas, w)
		}
		if best == nil || total < bestPower {
			best, bestPower = t, total
		}
	}
	return best, nil
}

// CommAwareModes builds the communication-aware topology the paper
// evaluates for the given mode count: the exact binary-partition sweep
// (CommAware2Mode) for 2 modes, the best-scored candidate partition
// (BestScoredPartition over CandidatePartitions4) for 4.
func CommAwareModes(m *trace.Matrix, p splitter.Params, modes int, name string) (*Topology, error) {
	switch modes {
	case 2:
		return CommAware2Mode(m, p, name)
	case 4:
		if err := enoughNodes(m.N, 4, "communication-aware"); err != nil {
			return nil, err
		}
		return BestScoredPartition(m, p, CandidatePartitions4(m.N), name)
	}
	return nil, fmt.Errorf("topo: communication-aware designs have 2 or 4 modes, got %d", modes)
}

// byBenefit orders destinations of s by descending frequency×transmission
// score: the marginal low-mode membership cost of destination d is
// Pmin/T(s,d), so the benefit-per-cost rank is freq(d)·T(s,d). Ties
// break by distance then index for determinism.
func byBenefit(m *trace.Matrix, p splitter.Params, s int) []int {
	n := m.N
	score := make([]float64, n)
	total := m.RowTotal(s)
	for d := 0; d < n; d++ {
		if d == s {
			continue
		}
		freq := m.Counts[s][d]
		if total > 0 {
			freq /= total
		}
		// A small frequency floor keeps the uniform-profile limit
		// exactly distance-ordered instead of tie-broken arbitrarily.
		score[d] = (freq + 1e-9) * float64(p.Layout.PathTransmission(s, d))
	}
	order := make([]int, 0, n-1)
	for d := 0; d < n; d++ {
		if d != s {
			order = append(order, d)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := score[order[i]], score[order[j]]
		if si != sj {
			return si > sj
		}
		di, dj := abs(order[i]-s), abs(order[j]-s)
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// byFrequency lists destinations of s by descending traffic count,
// breaking ties by waveguide distance then index for determinism.
func byFrequency(m *trace.Matrix, s int) []int {
	n := m.N
	order := make([]int, 0, n-1)
	for d := 0; d < n; d++ {
		if d != s {
			order = append(order, d)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		vi, vj := m.Counts[s][order[i]], m.Counts[s][order[j]]
		if vi != vj {
			return vi > vj
		}
		di, dj := abs(order[i]-s), abs(order[j]-s)
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// Render writes the Fig. 5-style adjacency matrix (1-based mode labels,
// '-' on the diagonal) for sources [lo, hi) and destinations [lo, hi).
// Pass 0, t.N to render everything.
func (t *Topology) Render(w io.Writer, lo, hi int) error {
	if lo < 0 || hi > t.N || lo >= hi {
		return fmt.Errorf("topo: render range [%d,%d) out of [0,%d]", lo, hi, t.N)
	}
	for s := hi - 1; s >= lo; s-- { // Fig. 5 draws source rows bottom-up
		if _, err := fmt.Fprintf(w, "%3d |", s); err != nil {
			return err
		}
		for d := lo; d < hi; d++ {
			cell := "-"
			if d != s {
				cell = fmt.Sprintf("%d", t.ModeOf[s][d]+1)
			}
			if _, err := fmt.Fprintf(w, " %s", cell); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "     (rows: sources, cols: destinations, labels: power mode, 1 = lowest)")
	return err
}
