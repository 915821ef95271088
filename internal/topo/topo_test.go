package topo

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mnoc/internal/splitter"
	"mnoc/internal/trace"
)

func TestNewAndValidate(t *testing.T) {
	tp := New(8, 2, "test")
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if tp.ModeOf[s][s] != -1 {
			t.Fatalf("diagonal not -1 at %d", s)
		}
		for d := 0; d < 8; d++ {
			if d != s && tp.ModeOf[s][d] != 1 {
				t.Fatalf("default mode not highest at (%d,%d)", s, d)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	tp := New(4, 2, "bad")
	tp.ModeOf[0][1] = 5
	if err := tp.Validate(); err == nil {
		t.Error("out-of-range mode accepted")
	}
	tp = New(4, 2, "bad")
	tp.ModeOf[2][2] = 0
	if err := tp.Validate(); err == nil {
		t.Error("diagonal mode accepted")
	}
	tp = New(4, 2, "bad")
	tp.ModeOf = tp.ModeOf[:2]
	if err := tp.Validate(); err == nil {
		t.Error("short row set accepted")
	}
}

func TestSingleMode(t *testing.T) {
	tp := SingleMode(16)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.Modes != 1 || tp.Name != "1M" {
		t.Fatalf("unexpected: %+v", tp)
	}
	sizes := tp.ModeSizes(3)
	if sizes[0] != 15 {
		t.Errorf("ModeSizes = %v, want [15]", sizes)
	}
}

// TestClusteredMatchesFigure5a reproduces the 8-node, 4-per-cluster
// example of Figure 5a exactly.
func TestClusteredMatchesFigure5a(t *testing.T) {
	tp, err := Clustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Row for source 0 in Fig 5a: - 1 1 1 2 2 2 2 (1-based labels).
	want0 := []int{-1, 0, 0, 0, 1, 1, 1, 1}
	for d, m := range tp.ModeOf[0] {
		if m != want0[d] {
			t.Fatalf("source 0 row = %v, want %v", tp.ModeOf[0], want0)
		}
	}
	// Row for source 7: 2 2 2 2 1 1 1 -.
	want7 := []int{1, 1, 1, 1, 0, 0, 0, -1}
	for d, m := range tp.ModeOf[7] {
		if m != want7[d] {
			t.Fatalf("source 7 row = %v, want %v", tp.ModeOf[7], want7)
		}
	}
	// Each source has exactly 3 low-mode destinations ("three
	// destinations in its lowest power mode").
	for s := 0; s < 8; s++ {
		sizes := tp.ModeSizes(s)
		if sizes[0] != 3 || sizes[1] != 4 {
			t.Fatalf("source %d sizes = %v, want [3 4]", s, sizes)
		}
	}
}

func TestClustered256Has252HighModeNodes(t *testing.T) {
	// "For the 256-node rNoC or c_NoC systems, there are 252 nodes in
	// the high power mode."
	tp, err := Clustered(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := tp.ModeSizes(100)
	if sizes[0] != 3 || sizes[1] != 252 {
		t.Fatalf("sizes = %v, want [3 252]", sizes)
	}
}

func TestClusteredRejectsBadClusterSize(t *testing.T) {
	if _, err := Clustered(8, 3); err == nil {
		t.Error("non-dividing cluster size accepted")
	}
	if _, err := Clustered(8, 1); err == nil {
		t.Error("cluster size 1 accepted")
	}
	// One cluster holding every node leaves the high mode empty.
	for _, n := range []int{2, 4} {
		if _, err := Clustered(n, 4); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d nodes fit in one cluster of 4", n)) {
			t.Errorf("Clustered(%d, 4): %v, want a one-cluster error", n, err)
		}
	}
}

// TestDistanceBasedMatchesFigure5b reproduces the 8-node 4-mode
// nearest-2 topology of Figure 5b.
func TestDistanceBasedMatchesFigure5b(t *testing.T) {
	tp, err := DistanceBased(8, []int{2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 5b row for source 0: - 1 1 2 2 3 3 4.
	want0 := []int{-1, 0, 0, 1, 1, 2, 2, 3}
	for d := range want0 {
		if tp.ModeOf[0][d] != want0[d] {
			t.Fatalf("source 0 row = %v, want %v", tp.ModeOf[0], want0)
		}
	}
	// Fig. 5b row for source 4: 4 3 2 1 - 1 2 3.
	want4 := []int{3, 2, 1, 0, -1, 0, 1, 2}
	for d := range want4 {
		if tp.ModeOf[4][d] != want4[d] {
			t.Fatalf("source 4 row = %v, want %v", tp.ModeOf[4], want4)
		}
	}
}

func TestDistanceBasedPaperConfigs(t *testing.T) {
	// Section 5.2: 2-mode with 128 closest in low power; 4-mode with
	// groups of 64 nearest.
	two, err := DistanceBased(256, []int{128, 127})
	if err != nil {
		t.Fatal(err)
	}
	four, err := DistanceBased(256, []int{64, 64, 64, 63})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 256; s += 51 {
		if got := two.ModeSizes(s); got[0] != 128 || got[1] != 127 {
			t.Fatalf("2-mode sizes at %d = %v", s, got)
		}
		if got := four.ModeSizes(s); got[0] != 64 || got[3] != 63 {
			t.Fatalf("4-mode sizes at %d = %v", s, got)
		}
	}
	// Low mode of an end source must be its 128 nearest: nodes 1..128.
	for d := 1; d <= 128; d++ {
		if two.ModeOf[0][d] != 0 {
			t.Fatalf("node %d not in low mode of source 0", d)
		}
	}
}

func TestDistanceBasedRejects(t *testing.T) {
	if _, err := DistanceBased(8, []int{3, 3}); err == nil {
		t.Error("sizes not summing to n-1 accepted")
	}
	if _, err := DistanceBased(8, []int{7, 0}); err == nil {
		t.Error("zero group accepted")
	}
}

func skewedMatrix(n int, seed int64) *trace.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for k := 0; k < 6; k++ { // 6 hot partners per source
			d := rng.Intn(n)
			if d == s {
				d = (d + 1) % n
			}
			m.Counts[s][d] += 100 + float64(rng.Intn(100))
		}
		for k := 0; k < 10; k++ { // light background traffic
			d := rng.Intn(n)
			if d == s {
				d = (d + 1) % n
			}
			m.Counts[s][d] += 1
		}
	}
	return m
}

func TestCommAware2ModePutsHotDestinationsLow(t *testing.T) {
	n := 64
	m := skewedMatrix(n, 5)
	p := splitter.DefaultParams(n)
	tp, err := CommAware2Mode(m, p, "2M_G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		// The hottest destination of every source must be in mode 0.
		best, bestV := -1, -1.0
		for d, v := range m.Counts[s] {
			if d != s && v > bestV {
				best, bestV = d, v
			}
		}
		if bestV > 0 && tp.ModeOf[s][best] != 0 {
			t.Fatalf("source %d: hottest destination %d in mode %d", s, best, tp.ModeOf[s][best])
		}
	}
}

func TestCommAware2ModeBeatsDistanceOnShuffledTraffic(t *testing.T) {
	// When hot partners are scattered (not nearest neighbours), the
	// communication-aware design must yield lower expected power than
	// the naive distance-based split — the core claim of Section 5.4.
	n := 64
	m := skewedMatrix(n, 11)
	p := splitter.DefaultParams(n)
	ca, err := CommAware2Mode(m, p, "2M_G")
	if err != nil {
		t.Fatal(err)
	}
	db, err := DistanceBased(n, []int{32, 31})
	if err != nil {
		t.Fatal(err)
	}
	total := func(tp *Topology) float64 {
		sum := 0.0
		for s := 0; s < n; s++ {
			w, err := tp.TrafficModeWeights(m, s)
			if err != nil {
				t.Fatal(err)
			}
			costs, err := splitter.ModeCosts(p, s, tp.ModeOf[s], tp.Modes)
			if err != nil {
				t.Fatal(err)
			}
			alphas := splitter.OptimalAlphas(costs, w)
			sum += float64(splitter.WeightedPowerForAlphas(costs, alphas, w))
		}
		return sum
	}
	if ca, db := total(ca), total(db); ca >= db {
		t.Errorf("comm-aware power %v not below distance-based %v", ca, db)
	}
}

func TestCommAwarePartitioned(t *testing.T) {
	n := 32
	m := skewedMatrix(n, 3)
	tp, err := CommAware(m, []int{4, 10, 8, 9}, "4M_G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		sizes := tp.ModeSizes(s)
		want := []int{4, 10, 8, 9}
		for i := range want {
			if sizes[i] != want[i] {
				t.Fatalf("source %d sizes = %v, want %v", s, sizes, want)
			}
		}
	}
	if _, err := CommAware(m, []int{4, 4}, "bad"); err == nil {
		t.Error("bad partition accepted")
	}
}

func TestScalePartition(t *testing.T) {
	// Full-size paper partition stays intact.
	got := ScalePartition(Paper4ModePartition, 256)
	sum := 0
	for _, g := range got {
		sum += g
	}
	if sum != 255 {
		t.Fatalf("scaled partition sums to %d, want 255", sum)
	}
	if got[0] != 4 {
		t.Errorf("mode-0 group = %d, want 4", got[0])
	}
	// Scaled down still sums correctly and keeps all groups positive.
	for _, n := range []int{16, 32, 64, 128} {
		p := ScalePartition(Paper4ModePartition, n)
		sum := 0
		for _, g := range p {
			if g < 1 {
				t.Fatalf("n=%d: empty group in %v", n, p)
			}
			sum += g
		}
		if sum != n-1 {
			t.Fatalf("n=%d: partition %v sums to %d", n, p, sum)
		}
	}
}

func TestTrafficModeWeights(t *testing.T) {
	tp, err := Clustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := trace.NewMatrix(8)
	m.Counts[0][1] = 30 // in-cluster
	m.Counts[0][5] = 10 // out-of-cluster
	w, err := tp.TrafficModeWeights(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-0.75) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Errorf("weights = %v, want [0.75 0.25]", w)
	}
	// Silent source gets uniform weights.
	w, err = tp.TrafficModeWeights(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Errorf("silent-source weights = %v, want uniform", w)
	}
	if _, err := tp.TrafficModeWeights(trace.NewMatrix(4), 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(4)
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("uniform weights sum to %v", sum)
	}
}

func TestRender(t *testing.T) {
	tp, err := Clustered(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tp.Render(&sb, 0, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "-") || !strings.Contains(out, "2") {
		t.Errorf("render output missing expected cells:\n%s", out)
	}
	// First rendered row is source 7 (bottom-up like Fig. 5).
	first := strings.SplitN(out, "\n", 2)[0]
	if !strings.HasPrefix(strings.TrimSpace(first), "7") {
		t.Errorf("first row should be source 7, got %q", first)
	}
	if err := tp.Render(&sb, 5, 3); err == nil {
		t.Error("bad range accepted")
	}
}

func TestByFrequencyDeterministicTieBreak(t *testing.T) {
	m := trace.NewMatrix(8)
	// All zero traffic: ties everywhere; order must be by distance then index.
	got := byFrequency(m, 4)
	want := []int{3, 5, 2, 6, 1, 7, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byFrequency order = %v, want %v", got, want)
		}
	}
}

func TestCommAwareScoredDegeneratesToDistanceOnUniform(t *testing.T) {
	// With a uniform profile the benefit score is pure transmission, so
	// the scored topology must equal the distance-based one.
	n := 32
	m := trace.NewMatrix(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				m.Counts[s][d] = 1
			}
		}
	}
	p := splitter.DefaultParams(n)
	groups := []int{8, 8, 8, 7}
	scored, err := CommAwareScored(m, p, groups, "scored")
	if err != nil {
		t.Fatal(err)
	}
	dist, err := DistanceBased(n, groups)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if scored.ModeOf[s][d] != dist.ModeOf[s][d] {
				t.Fatalf("scored != distance at (%d,%d): %d vs %d",
					s, d, scored.ModeOf[s][d], dist.ModeOf[s][d])
			}
		}
	}
}

func TestCommAwareScoredRejections(t *testing.T) {
	m := trace.NewMatrix(16)
	p := splitter.DefaultParams(32)
	if _, err := CommAwareScored(m, p, []int{8, 7}, "x"); err == nil {
		t.Error("size mismatch accepted")
	}
	p = splitter.DefaultParams(16)
	if _, err := CommAwareScored(m, p, []int{8, 8}, "x"); err == nil {
		t.Error("bad partition accepted")
	}
	if _, err := CommAwareScored(m, p, []int{15, 0}, "x"); err == nil {
		t.Error("zero group accepted")
	}
}

func TestCandidatePartitions4(t *testing.T) {
	for _, n := range []int{32, 64, 256} {
		cands := CandidatePartitions4(n)
		if len(cands) < 3 {
			t.Fatalf("n=%d: only %d candidates", n, len(cands))
		}
		for _, p := range cands {
			sum := 0
			for _, g := range p {
				if g < 1 {
					t.Fatalf("n=%d: empty group in %v", n, p)
				}
				sum += g
			}
			if sum != n-1 {
				t.Fatalf("n=%d: %v sums to %d", n, p, sum)
			}
		}
	}
}

func TestBestScoredPartitionPicksLowestPower(t *testing.T) {
	n := 32
	m := skewedMatrix(n, 21)
	p := splitter.DefaultParams(n)
	cands := CandidatePartitions4(n)
	best, err := BestScoredPartition(m, p, cands, "best")
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(); err != nil {
		t.Fatal(err)
	}
	costOf := func(tp *Topology) float64 {
		total := 0.0
		for s := 0; s < n; s++ {
			w, err := tp.TrafficModeWeights(m, s)
			if err != nil {
				t.Fatal(err)
			}
			costs, err := splitter.ModeCosts(p, s, tp.ModeOf[s], tp.Modes)
			if err != nil {
				t.Fatal(err)
			}
			alphas := splitter.OptimalAlphas(costs, w)
			total += float64(splitter.WeightedPowerForAlphas(costs, alphas, w))
		}
		return total
	}
	bestCost := costOf(best)
	for _, cand := range cands {
		tp, err := CommAwareScored(m, p, cand, "cand")
		if err != nil {
			t.Fatal(err)
		}
		if c := costOf(tp); c < bestCost*(1-1e-9) {
			t.Errorf("candidate %v (%v) beats chosen best (%v)", cand, c, bestCost)
		}
	}
	if _, err := BestScoredPartition(m, p, nil, "x"); err == nil {
		t.Error("empty candidate set accepted")
	}
}

// The paper's design builders take 2 or 4 modes, and the 2-mode sweep
// needs a destination for each mode.
func TestPaperModeBuildersRejections(t *testing.T) {
	m := skewedMatrix(16, 3)
	p := splitter.DefaultParams(16)
	if _, err := DistanceModes(16, 3); err == nil {
		t.Error("3-mode distance design accepted")
	}
	if _, err := CommAwareModes(m, p, 3, "x"); err == nil {
		t.Error("3-mode communication-aware design accepted")
	}
	if _, err := CommAware2Mode(trace.NewMatrix(2), splitter.DefaultParams(2), "x"); err == nil {
		t.Error("2-node communication-aware design accepted")
	}
	// Fewer destinations than modes: some mode would reach nobody.
	for n := 2; n <= 4; n++ {
		want := fmt.Sprintf("design needs at least 5 nodes, got %d", n)
		if _, err := DistanceModes(n, 4); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DistanceModes(%d, 4): %v, want %q", n, err, want)
		}
		if _, err := CommAwareModes(trace.NewMatrix(n), splitter.DefaultParams(n), 4, "x"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CommAwareModes(%d nodes, 4): %v, want %q", n, err, want)
		}
	}
	if _, err := DistanceModes(2, 2); err == nil || !strings.Contains(err.Error(), "needs at least 3 nodes, got 2") {
		t.Errorf("DistanceModes(2, 2): %v", err)
	}
	for _, modes := range []int{2, 4} {
		d, err := DistanceModes(16, modes)
		if err != nil || d.Modes != modes {
			t.Errorf("%d-mode distance design: %v", modes, err)
		}
		c, err := CommAwareModes(m, p, modes, "x")
		if err != nil || c.Modes != modes {
			t.Errorf("%d-mode communication-aware design: %v", modes, err)
		}
	}
}
