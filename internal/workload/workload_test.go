package workload

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mnoc/internal/trace"
)

// mustMatrix builds the benchmark's matrix, failing the test on error.
func mustMatrix(t *testing.T, b Benchmark, n int, seed int64) *trace.Matrix {
	t.Helper()
	m, err := b.Matrix(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllHasTwelveBenchmarksInTable4Order(t *testing.T) {
	want := []string{"barnes", "radix", "ocean_c", "ocean_nc", "raytrace", "fft",
		"water_s", "water_ns", "cholesky", "lu_cb", "lu_ncb", "volrend"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestPaperBaseWattsAverage(t *testing.T) {
	// Table 4 reports an average of 20.94 W.
	sum := 0.0
	for _, b := range All() {
		sum += b.PaperBaseWatts
	}
	avg := sum / 12
	if math.Abs(avg-20.94) > 0.05 {
		t.Errorf("Table 4 average = %v, want 20.94", avg)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	if b.PaperBaseWatts != 120.34 {
		t.Errorf("radix base power = %v, want 120.34", b.PaperBaseWatts)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMatrixPropertiesAllBenchmarks(t *testing.T) {
	for _, b := range All() {
		for _, n := range []int{16, 64, 256} {
			m := mustMatrix(t, b, n, 1)
			if m.N != n {
				t.Fatalf("%s: matrix size %d, want %d", b.Name, m.N, n)
			}
			if math.Abs(m.Total()-1) > 1e-9 {
				t.Fatalf("%s n=%d: total %v, want 1", b.Name, n, m.Total())
			}
			for i := 0; i < n; i++ {
				if m.Counts[i][i] != 0 {
					t.Fatalf("%s n=%d: nonzero diagonal at %d", b.Name, n, i)
				}
				for j := 0; j < n; j++ {
					if m.Counts[i][j] < 0 {
						t.Fatalf("%s: negative entry at (%d,%d)", b.Name, i, j)
					}
				}
			}
			// Every source must emit something: the power model needs
			// per-source weights.
			for s := 0; s < n; s++ {
				if m.RowTotal(s) == 0 {
					t.Fatalf("%s n=%d: silent source %d", b.Name, n, s)
				}
			}
		}
	}
}

func TestMatrixDeterministic(t *testing.T) {
	for _, b := range All() {
		a := mustMatrix(t, b, 64, 42)
		c := mustMatrix(t, b, 64, 42)
		if !reflect.DeepEqual(a.Counts, c.Counts) {
			t.Errorf("%s: Matrix not deterministic for same seed", b.Name)
		}
	}
}

func TestCommunicationShapesDiffer(t *testing.T) {
	// The whole point of per-benchmark patterns: shapes must not all
	// collapse to the same matrix.
	ms := map[string]float64{}
	for _, b := range All() {
		ms[b.Name] = mustMatrix(t, b, 256, 1).AvgDistance()
	}
	if ms["ocean_c"] >= ms["radix"] {
		t.Errorf("contiguous ocean (%.1f) should be more local than radix all-to-all (%.1f)",
			ms["ocean_c"], ms["radix"])
	}
	if ms["volrend"] >= ms["ocean_nc"] {
		t.Errorf("volrend (%.1f) should be more local than strided ocean_nc (%.1f)",
			ms["volrend"], ms["ocean_nc"])
	}
}

func TestAverageCommDistanceNearPaperObservation(t *testing.T) {
	// Observation 3: "The average communication distance between
	// threads … is 102 across 12 SPLASH benchmarks." Our synthetic mix
	// must land in the same regime (non-trivially far, below uniform
	// random ≈ 85.3·(256/255)… bounded sanity band 40..120).
	sum := 0.0
	for _, b := range All() {
		sum += mustMatrix(t, b, 256, 1).AvgDistance()
	}
	avg := sum / 12
	if avg < 40 || avg > 120 {
		t.Errorf("average comm distance = %.1f, want within [40,120] (paper: 102)", avg)
	}
}

func TestNonUniformCommunication(t *testing.T) {
	// Observation 3 also notes traffic is unevenly distributed between
	// pairs. Check coefficient of variation across nonzero pairs is
	// substantial for the locality-heavy benchmarks.
	for _, name := range []string{"barnes", "ocean_c", "volrend", "cholesky"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := mustMatrix(t, b, 256, 1)
		var vals []float64
		for s := range m.Counts {
			for d, v := range m.Counts[s] {
				if s != d && v > 0 {
					vals = append(vals, v)
				}
			}
		}
		mean, sd := meanStd(vals)
		if sd/mean < 0.3 {
			t.Errorf("%s: traffic too uniform (cv=%.2f)", name, sd/mean)
		}
	}
}

func meanStd(vals []float64) (mean, sd float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(vals)))
	return mean, sd
}

func TestTraceGeneration(t *testing.T) {
	b, err := ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(64, 10000, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 5000 {
		t.Fatalf("got %d packets, want 5000", len(tr.Packets))
	}
	// Packets must be cycle-sorted.
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Cycle < tr.Packets[i-1].Cycle {
			t.Fatal("packets not sorted by cycle")
		}
	}
	// The empirical matrix must correlate with the target shape.
	target := mustMatrix(t, b, 64, 7)
	got := tr.Matrix().Normalized()
	if corr := matrixCorrelation(target.Counts, got.Counts); corr < 0.9 {
		t.Errorf("trace/shape correlation = %.3f, want >= 0.9", corr)
	}
}

func matrixCorrelation(a, b [][]float64) float64 {
	var sa, sb, saa, sbb, sab float64
	n := 0.0
	for i := range a {
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
			n++
		}
	}
	num := sab - sa*sb/n
	den := math.Sqrt((saa - sa*sa/n) * (sbb - sb*sb/n))
	if den == 0 {
		return 0
	}
	return num / den
}

func TestTraceDeterministic(t *testing.T) {
	b, _ := ByName("barnes")
	a1, err := b.Trace(32, 1000, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Trace(32, 1000, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Error("Trace not deterministic")
	}
}

func TestTraceRejectsBadArgs(t *testing.T) {
	b, _ := ByName("barnes")
	if _, err := b.Trace(32, 0, 100, 1); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := b.Trace(32, 100, 0, 1); err == nil {
		t.Error("zero flits accepted")
	}
}

func TestSampleS4Valid(t *testing.T) {
	if len(SampleS4) != 4 {
		t.Fatalf("S4 has %d entries", len(SampleS4))
	}
	for _, name := range SampleS4 {
		if _, err := ByName(name); err != nil {
			t.Errorf("S4 entry %q: %v", name, err)
		}
	}
}

func TestStrideIsPermutation(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		p := stride(n, 17)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("stride(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestGridAndBoxFactorisations(t *testing.T) {
	for _, n := range []int{16, 64, 128, 256} {
		r, c := grid(n)
		if r*c != n {
			t.Errorf("grid(%d) = %dx%d", n, r, c)
		}
		x, y, z := box(n)
		if x*y*z != n {
			t.Errorf("box(%d) = %dx%dx%d", n, x, y, z)
		}
	}
}

// TestSortByCycleMatchesSortSlice pins the equal-cycle order of the
// typed trace sort to that of sort.Slice with the same less function,
// on traces where most packets share a cycle with others.
func TestSortByCycleMatchesSortSlice(t *testing.T) {
	for _, tc := range []struct{ n, cycles int }{{12, 1}, {200, 3}, {5000, 40}, {100000, 1000}} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		ps := make([]trace.Packet, tc.n)
		for i := range ps {
			// Src tags each packet so equal-cycle reorderings show.
			ps[i] = trace.Packet{Cycle: uint64(rng.Intn(tc.cycles)), Src: int32(i), Flits: 1}
		}
		want := append([]trace.Packet(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].Cycle < want[j].Cycle })
		sortByCycle(ps)
		if !reflect.DeepEqual(ps, want) {
			t.Fatalf("n=%d cycles=%d: typed sort order differs from sort.Slice", tc.n, tc.cycles)
		}
	}
}

// binarySample is the binary-search lower bound the guide table
// replaced: the first index with cum[i] >= u, or the last index.
func binarySample(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestGuideTableMatchesBinarySearch draws from random normalised
// cumulative tables, including tables with equal neighbouring entries,
// and checks the guide table against the binary search on random u,
// on every u exactly equal to a cum[i] (and its float neighbours), and
// on the ends of [0, 1].
func TestGuideTableMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 2, 3, 7, 64, 100, 1000, 4033} {
		for rep := 0; rep < 5; rep++ {
			cum := make([]float64, size)
			run := 0.0
			for i := range cum {
				switch w := rng.Float64(); {
				case w < 0.1:
					// tiny weight: neighbours that round to equal cumulatives
					run += 1e-18
				case w < 0.2:
					run += 100 * rng.Float64()
				default:
					run += rng.Float64()
				}
				cum[i] = run
			}
			for i := range cum {
				cum[i] /= run
			}
			g := newGuideTable(cum)
			us := []float64{0, math.Nextafter(1, 0), 1}
			for _, c := range cum {
				us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for i := 0; i < 2000; i++ {
				us = append(us, rng.Float64())
			}
			for _, u := range us {
				if got, want := g.sample(u), binarySample(cum, u); got != want {
					t.Fatalf("size %d rep %d: sample(%v) = %d, binary search %d", size, rep, u, got, want)
				}
			}
		}
	}
}
