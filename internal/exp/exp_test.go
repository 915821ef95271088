package exp

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// bg is the ambient context for tests that don't exercise
// cancellation.
var bg = context.Background()

// testContext is shared across tests: Quick scale, built once.
var testCtx *Context

func ctx(t *testing.T) *Context {
	t.Helper()
	if testCtx == nil {
		c, err := NewContext(Quick())
		if err != nil {
			t.Fatal(err)
		}
		testCtx = c
	}
	return testCtx
}

// cell parses a table cell as float.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// findRow locates a row by its first cell.
func findRow(t *testing.T, tbl *Table, name string) []string {
	t.Helper()
	for _, r := range tbl.Rows {
		if r[0] == name {
			return r
		}
	}
	t.Fatalf("row %q not in %v", name, tbl.Rows)
	return nil
}

// colIndex locates a column by header.
func colIndex(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, h := range tbl.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("column %q not in %v", name, tbl.Header)
	return -1
}

func TestOptionsValidate(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Error(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Error(err)
	}
	bad := Quick()
	bad.N = 4
	if err := bad.Validate(); err == nil {
		t.Error("tiny N accepted")
	}
}

func TestRegistryCoversAllPaperArtifacts(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig5", "fig6", "table4",
		"fig7", "fig8", "fig9", "appspecific", "sensitivity", "fig10"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("entry %d = %q, want %q", i, reg[i].ID, id)
		}
	}
	if _, err := ByID("fig8"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig2SharesShift(t *testing.T) {
	tbl, err := Fig2(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(tbl.Rows))
	}
	qdLow, oeLow := cell(t, tbl, 0, 1), cell(t, tbl, 0, 2)
	qdHigh, oeHigh := cell(t, tbl, 9, 1), cell(t, tbl, 9, 2)
	if !(qdHigh > 70 && qdHigh < 90) {
		t.Errorf("QD share at 10uW = %v, want ~80", qdHigh)
	}
	if !(oeLow > 50) {
		t.Errorf("O/E share at 1uW = %v, want dominant", oeLow)
	}
	if !(qdLow < qdHigh && oeHigh < oeLow) {
		t.Error("shares do not cross over with mIOP")
	}
}

func TestFig3Exponential(t *testing.T) {
	tbl, err := Fig3(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Relative power strictly increasing, ending at 1.0.
	prev := 0.0
	for i := range tbl.Rows {
		v := cell(t, tbl, i, 1)
		if v <= prev {
			t.Fatalf("row %d: %v not increasing", i, v)
		}
		prev = v
	}
	if prev != 1 {
		t.Errorf("full broadcast = %v, want 1.0", prev)
	}
	// Half-reach costs well under half the broadcast power.
	half := cell(t, tbl, len(tbl.Rows)-2, 1)
	if half > 0.5 {
		t.Errorf("half-distance power = %v, want < 0.5 (superlinear growth)", half)
	}
}

func TestFig5RendersBothTopologies(t *testing.T) {
	tbl, err := Fig5(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "(a) Clustered") || !strings.Contains(joined, "(b) Distance-based") {
		t.Fatalf("missing sections:\n%s", joined)
	}
	// Fig 5b has 4 modes: label "4" must appear.
	if !strings.Contains(joined, "4") {
		t.Error("4-mode labels missing")
	}
}

func TestFig6MiddleCheapest(t *testing.T) {
	tbl, err := Fig6(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 1)
	last := cell(t, tbl, len(tbl.Rows)-1, 1)
	minV := 1.0
	for i := range tbl.Rows {
		if v := cell(t, tbl, i, 1); v < minV {
			minV = v
		}
	}
	if first < 0.95 && last < 0.95 {
		t.Errorf("end positions should be near max: %v, %v", first, last)
	}
	if minV > 0.6 {
		t.Errorf("minimum %v too flat; middle should be much cheaper", minV)
	}
}

func TestTable4CalibratedToPaper(t *testing.T) {
	tbl, err := Table4(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 13 { // 12 benchmarks + average
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for i := 0; i < 12; i++ {
		measured := cell(t, tbl, i, 1)
		paper := cell(t, tbl, i, 2)
		if measured < paper*0.999 || measured > paper*1.001 {
			t.Errorf("row %s: measured %v vs paper %v", tbl.Rows[i][0], measured, paper)
		}
	}
	avg := findRow(t, tbl, "average")
	if avg[2] != "20.94" {
		t.Errorf("paper average cell = %q", avg[2])
	}
}

func TestFig7ProducesFourHeatmaps(t *testing.T) {
	tbl, err := Fig7(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Notes, "\n")
	for _, label := range []string{"(a)", "(b)", "(c)", "(d)"} {
		if !strings.Contains(joined, label) {
			t.Errorf("missing heatmap %s", label)
		}
	}
}

func TestFig8Ladder(t *testing.T) {
	tbl, err := Fig8(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	h := findRow(t, tbl, "hmean")
	get := func(name string) float64 {
		i := colIndex(t, tbl, name)
		v, err := strconv.ParseFloat(h[i], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	m1, m1T := get("1M"), get("1M_T")
	d2, d2T := get("2M_N_U"), get("2M_T_N_U")
	d4, d4T := get("4M_N_U"), get("4M_T_N_U")
	c2 := get("2M_C_U")

	if m1 < 0.999 || m1 > 1.001 {
		t.Errorf("base normalized to %v, want 1", m1)
	}
	// Paper orderings: topologies alone save some power; 4M beats 2M;
	// mapping compounds with topologies; clustered saves the least.
	if !(d2 < m1 && d4 < d2) {
		t.Errorf("distance ladder broken: 1M=%v 2M=%v 4M=%v", m1, d2, d4)
	}
	if !(m1T < m1 && d2T < d2 && d4T < d4) {
		t.Errorf("mapping does not help: %v %v %v", m1T, d2T, d4T)
	}
	if !(d4T < m1T) {
		t.Errorf("4M_T %v not below 1M_T %v", d4T, m1T)
	}
	if !(c2 > d2) {
		t.Errorf("clustered %v should save less than distance-based %v", c2, d2)
	}
	// Magnitudes in the paper's regime.
	if d4T > 0.75 || d4T < 0.3 {
		t.Errorf("4M_T_N_U = %v, paper reports ~0.61", d4T)
	}
}

func TestFig9CommunicationAwareWins(t *testing.T) {
	tbl, err := Fig9(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	h := findRow(t, tbl, "hmean")
	get := func(name string) float64 {
		i := colIndex(t, tbl, name)
		v, err := strconv.ParseFloat(h[i], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// G (comm-aware) beats N (distance) per sample set and mode count.
	for _, pair := range [][2]string{
		{"2M_T_G_S4", "2M_T_N_S4"},
		{"2M_T_G_S12", "2M_T_N_S12"},
		{"4M_T_G_S4", "4M_T_N_S4"},
		{"4M_T_G_S12", "4M_T_N_S12"},
	} {
		if g, n := get(pair[0]), get(pair[1]); g >= n {
			t.Errorf("%s (%v) not below %s (%v)", pair[0], g, pair[1], n)
		}
	}
	// More profiling information is better: S12 <= S4 for G designs.
	if get("4M_T_G_S12") > get("4M_T_G_S4")+0.02 {
		t.Errorf("S12 (%v) worse than S4 (%v)", get("4M_T_G_S12"), get("4M_T_G_S4"))
	}
	// Best design saves roughly half the power (paper: 0.49).
	best := get("4M_T_G_S12")
	if best > 0.7 || best < 0.25 {
		t.Errorf("4M_T_G_S12 = %v, paper reports 0.49", best)
	}
}

func TestAppSpecificBeatsGeneric(t *testing.T) {
	tbl, err := AppSpecific(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	h := findRow(t, tbl, "hmean")
	v2, err := strconv.ParseFloat(h[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := strconv.ParseFloat(h[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if v2 >= 1 || v4 >= 1 {
		t.Errorf("app-specific designs do not save power: %v %v", v2, v4)
	}
}

func TestSensitivitySmallVariation(t *testing.T) {
	tbl, err := Sensitivity(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	minV, maxV := 2.0, 0.0
	for i := range tbl.Rows {
		v := cell(t, tbl, i, 1)
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		// Paper: every weighting achieves > 40% reduction; our model
		// shows a slightly wider spread at quick scale, so require a
		// 30% reduction from every weighting.
		if v > 0.70 {
			t.Errorf("weighting %s only reaches %v", tbl.Rows[i][0], v)
		}
	}
	// Paper: minimal variation across weights (within a few percent).
	if maxV-minV > 0.10 {
		t.Errorf("weighting spread %v..%v too wide", minV, maxV)
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note"},
	}
	var sb strings.Builder
	if err := tbl.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: T ==", "333", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSampledMatrixNormalised(t *testing.T) {
	c := ctx(t)
	m, err := c.SampledMatrix(bg, []string{"barnes", "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if tot := m.Total(); tot < 0.999 || tot > 1.001 {
		t.Errorf("sampled matrix total = %v, want 1", tot)
	}
	if _, err := c.SampledMatrix(bg, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestMaxRadix(t *testing.T) {
	r1, err := MaxRadix(1e6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: mNoC scales beyond 256×256 even at 2 dB/cm.
	if r1 < 256 {
		t.Errorf("max radix at 1dB/cm = %d, want >= 256", r1)
	}
	r2, err := MaxRadix(1e6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if r2 > r1 {
		t.Errorf("higher loss should not scale further: %d > %d", r2, r1)
	}
	if _, err := MaxRadix(-1, 1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := MaxRadix(1, 50); err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestExtensionsRegistry(t *testing.T) {
	want := []string{"conventional", "joint", "dynamic", "broadcastinv", "mwsr", "protocol", "signal", "variation", "designspace", "trimsweep", "loadsweep", "summary", "alphagrid"}
	exts := Extensions()
	if len(exts) != len(want) {
		t.Fatalf("%d extensions, want %d", len(exts), len(want))
	}
	for i, id := range want {
		if exts[i].ID != id {
			t.Errorf("extension %d = %q, want %q", i, exts[i].ID, id)
		}
	}
	if _, err := ExtensionByID("joint"); err != nil {
		t.Error(err)
	}
	if _, err := ExtensionByID("nope"); err == nil {
		t.Error("unknown extension accepted")
	}
}

func TestConventionalExperiment(t *testing.T) {
	tbl, err := Conventional(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for i := range tbl.Rows {
		vals[tbl.Rows[i][0]] = cell(t, tbl, i, 2)
	}
	// Section 4.1's point: the distance-based design beats every
	// conventional mapping (which may even cost MORE than broadcast,
	// like the clustered one).
	for name, v := range vals {
		if name == "distance4" {
			continue
		}
		if vals["distance4"] >= v {
			t.Errorf("distance4 (%v) not below %s (%v)", vals["distance4"], name, v)
		}
	}
}

func TestJointExperiment(t *testing.T) {
	tbl, err := Joint(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		distSeq, distJoint := cell(t, tbl, i, 1), cell(t, tbl, i, 2)
		commSeq, commJoint := cell(t, tbl, i, 3), cell(t, tbl, i, 4)
		if distJoint > distSeq*(1+1e-9) {
			t.Errorf("row %d: dist joint %v worse than seq %v", i, distJoint, distSeq)
		}
		if commJoint > commSeq*(1+1e-9) {
			t.Errorf("row %d: comm joint %v worse than seq %v", i, commJoint, commSeq)
		}
	}
}

func TestDynamicExperiment(t *testing.T) {
	tbl, err := Dynamic(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	total := findRow(t, tbl, "total")
	adaptive, err := strconv.ParseFloat(total[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	static, err := strconv.ParseFloat(total[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive >= static {
		t.Errorf("adaptive total %v not below static %v", adaptive, static)
	}
}

func TestBroadcastInvExperiment(t *testing.T) {
	tbl, err := BroadcastInv(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		uni := cell(t, tbl, i, 1)
		bc := cell(t, tbl, i, 2)
		if bc > uni {
			t.Errorf("row %s: broadcast packets %v above unicast %v", tbl.Rows[i][0], bc, uni)
		}
	}
}

func TestAlphaGridExperiment(t *testing.T) {
	tbl, err := AlphaGrid(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	prev := 2.0
	for i := range tbl.Rows {
		v := cell(t, tbl, i, 1)
		if v > prev+1e-9 {
			t.Errorf("finer grid got worse: row %d = %v after %v", i, v, prev)
		}
		prev = v
	}
	if first := cell(t, tbl, 0, 1); first != 1 {
		t.Errorf("baseline not normalized: %v", first)
	}
}

func TestMWSRExperiment(t *testing.T) {
	tbl, err := MWSRCompare(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	ptPower := cell(t, tbl, 1, 1)
	mwPower := cell(t, tbl, 2, 1)
	swLat := cell(t, tbl, 0, 2)
	mwLat := cell(t, tbl, 2, 2)
	if mwPower >= 1 {
		t.Errorf("MWSR power %v not below broadcast", mwPower)
	}
	if ptPower >= 1 {
		t.Errorf("power-topology power %v not below broadcast", ptPower)
	}
	if mwLat <= swLat {
		t.Errorf("MWSR latency %v not above SWMR %v", mwLat, swLat)
	}
}

func TestSignalExperiment(t *testing.T) {
	tbl, err := Signal(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		ber, err := strconv.ParseFloat(tbl.Rows[i][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ber > 1e-9 {
			t.Errorf("mode %d BER %v above target", i+1, ber)
		}
	}
	joined := strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "compliant: true") {
		t.Errorf("design not threshold-compliant:\n%s", joined)
	}
}

func TestVariationExperiment(t *testing.T) {
	tbl, err := Variation(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Fail fraction grows with sigma; the largest sigma needs a guard band.
	prev := -1.0
	for i := range tbl.Rows {
		v := cell(t, tbl, i, 1)
		if v < prev {
			t.Errorf("fail fraction not monotone at row %d", i)
		}
		prev = v
	}
	if gb := cell(t, tbl, 3, 3); gb <= 0 {
		t.Errorf("no guard band at 10%% sigma: %v", gb)
	}
}

func TestProtocolAblationExperiment(t *testing.T) {
	tbl, err := ProtocolAblation(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		mosiWrites := cell(t, tbl, i, 1)
		msiWrites := cell(t, tbl, i, 2)
		if msiWrites <= mosiWrites {
			t.Errorf("row %s: MSI writes %v not above MOSI %v", tbl.Rows[i][0], msiWrites, mosiWrites)
		}
		mosiPkts := cell(t, tbl, i, 3)
		msiPkts := cell(t, tbl, i, 4)
		if msiPkts <= mosiPkts {
			t.Errorf("row %s: MSI packets %v not above MOSI %v", tbl.Rows[i][0], msiPkts, mosiPkts)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a"}, Rows: [][]string{{"1"}}, Notes: []string{"n"}}
	blob, err := tbl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, blob)
	}
	if decoded["id"] != "x" || decoded["title"] != "T" {
		t.Errorf("decoded = %v", decoded)
	}
}

func TestBroadcastInvActuallyCoalesces(t *testing.T) {
	tbl, err := BroadcastInv(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	// At least one benchmark must exercise broadcast invalidation and
	// strictly reduce packets (globally-shared blocks guarantee
	// multi-sharer writes).
	coalesced := false
	for i := range tbl.Rows {
		if cell(t, tbl, i, 5) > 0 && cell(t, tbl, i, 2) < cell(t, tbl, i, 1) {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("broadcast invalidation never fired")
	}
}

func TestNewContextRejectsBadOptions(t *testing.T) {
	bad := Quick()
	bad.Cycles = 0
	if _, err := NewContext(bad); err == nil {
		t.Error("zero cycles accepted")
	}
	bad = Quick()
	bad.SimAccesses = 0
	if _, err := NewContext(bad); err == nil {
		t.Error("zero accesses accepted")
	}
}

func TestContextShapeUnknownBenchmark(t *testing.T) {
	c := ctx(t)
	if _, err := c.Shape(bg, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := c.QAPMapping(bg, "nope"); err == nil {
		t.Error("unknown benchmark accepted by QAPMapping")
	}
	if _, err := c.Mapped(bg, "nope"); err == nil {
		t.Error("unknown benchmark accepted by Mapped")
	}
	if _, err := c.SampledMatrix(bg, []string{"nope"}); err == nil {
		t.Error("unknown benchmark accepted by SampledMatrix")
	}
}

func TestContextCachesAreStable(t *testing.T) {
	c := ctx(t)
	a, err := c.Shape(bg, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Shape(bg, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Shape not cached")
	}
	m1, err := c.QAPMapping(bg, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.QAPMapping(bg, "barnes")
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("QAPMapping not stable")
		}
	}
}

func TestPerformanceCached(t *testing.T) {
	c := ctx(t)
	a1, b1, err := c.Performance(bg, "volrend")
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := c.Performance(bg, "volrend")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1 != b2 {
		t.Error("Performance not deterministic/cached")
	}
	if a1 == 0 || b1 == 0 {
		t.Error("zero runtimes")
	}
	if _, _, err := c.Performance(bg, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDesignSpaceExperiment(t *testing.T) {
	tbl, err := DesignSpace(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 { // 3 mIOPs x 4 mode counts
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Per mIOP: broadcast row normalizes to 1 and more modes help.
	for block := 0; block < 3; block++ {
		base := cell(t, tbl, block*4, 3)
		if base < 0.999 || base > 1.001 {
			t.Errorf("block %d: broadcast normalized to %v", block, base)
		}
		prev := base
		for i := 1; i < 4; i++ {
			v := cell(t, tbl, block*4+i, 3)
			if v >= prev {
				t.Errorf("block %d: %d modes (%v) not below previous (%v)",
					block, 1<<i, v, prev)
			}
			prev = v
		}
	}
}

func TestFig10EnergyOrdering(t *testing.T) {
	tbl, err := Fig10(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		row := findRow(t, tbl, name)
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	rn, mn, cm, pt := get("rNoC"), get("mNoC"), get("c_mNoC"), get("PT_mNoC")
	if rn < 0.999 || rn > 1.001 {
		t.Errorf("rNoC not normalized: %v", rn)
	}
	// Scale-independent orderings: every mNoC variant beats rNoC, and
	// the power topology beats the base crossbar. (The c_mNoC/mNoC
	// relation and ring-heating dominance are radix-dependent —
	// trimming grows with radix², so they only hold at paper scale,
	// where paper_results.txt pins them.)
	if !(mn < rn && pt < mn && cm < rn) {
		t.Errorf("energy ordering broken: mNoC=%v c_mNoC=%v PT=%v", mn, cm, pt)
	}
}

func TestTable1SystemRows(t *testing.T) {
	tbl, err := Table1(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	perfRow := findRow(t, tbl, "Normalized performance (256-node)")
	perf, err := strconv.ParseFloat(perfRow[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if perf < 1.0 || perf > 1.5 {
		t.Errorf("performance ratio %v outside the paper's regime (1.1)", perf)
	}
	energyRow := findRow(t, tbl, "Normalized energy (256-node)")
	energy, err := strconv.ParseFloat(energyRow[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if energy >= 1 || energy < 0.2 {
		t.Errorf("energy %v outside the paper's regime (<= 0.57)", energy)
	}
	scal := findRow(t, tbl, "Scalability (max crossbar radix)")
	if !strings.Contains(scal[2], "x") {
		t.Errorf("scalability cell malformed: %q", scal[2])
	}
}

func TestPrecomputeParallelMatchesSerial(t *testing.T) {
	// A fresh context precomputed with 4 workers must produce the same
	// mappings as the (serially built) shared context.
	par, err := NewContext(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Precompute(bg, 4); err != nil {
		t.Fatal(err)
	}
	serial := ctx(t)
	for _, name := range []string{"barnes", "radix", "volrend"} {
		a, err := par.QAPMapping(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.QAPMapping(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: parallel and serial mappings differ at %d", name, i)
			}
		}
	}
}

func TestTrimSweepMonotone(t *testing.T) {
	tbl, err := TrimSweep(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	prevR, prevRatio := 0.0, 2.0
	for i := range tbl.Rows {
		r := cell(t, tbl, i, 1)
		ratio := cell(t, tbl, i, 3)
		if r <= prevR {
			t.Errorf("rNoC power not increasing with trimming at row %d", i)
		}
		if ratio >= prevRatio {
			t.Errorf("PT energy ratio not improving with trimming at row %d", i)
		}
		prevR, prevRatio = r, ratio
	}
}

func TestLoadSweep(t *testing.T) {
	tbl, err := LoadSweep(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Latency must be non-decreasing with load for every design, and
	// the flat crossbar must beat the clustered design at every point.
	for col := 1; col <= 3; col++ {
		prev := 0.0
		for i := range tbl.Rows {
			v := cell(t, tbl, i, col)
			if v < prev {
				t.Errorf("col %d: latency decreased at row %d (%v < %v)", col, i, v, prev)
			}
			prev = v
		}
	}
	for i := range tbl.Rows {
		if mn, rn := cell(t, tbl, i, 1), cell(t, tbl, i, 2); mn >= rn {
			t.Errorf("row %d: mNoC latency %v not below rNoC %v", i, mn, rn)
		}
	}
}

// TestLoadSweepCancelled checks that a cancelled context stops the
// sweep: LoadSweep returns the context's error, not a table.
func TestLoadSweepCancelled(t *testing.T) {
	cctx, cancel := context.WithCancel(bg)
	cancel()
	tbl, err := LoadSweep(cctx, ctx(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tbl != nil {
		t.Errorf("cancelled sweep returned a table: %+v", tbl)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

// TestFullDeterminism builds two independent contexts and checks a
// representative experiment reproduces cell-for-cell — the property
// that makes paper_results.txt meaningful.
func TestFullDeterminism(t *testing.T) {
	run := func() *Table {
		c, err := NewContext(Quick())
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Fig8(bg, c)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a, b := run(), run()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestSummaryExperiment(t *testing.T) {
	tbl, err := Summary(bg, ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] == "" || row[2] == "" {
			t.Errorf("empty cells in %v", row)
		}
	}
}
