package benchjson

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const rawBenchOutput = `goos: linux
goarch: amd64
pkg: mnoc/internal/phys
cpu: Example CPU @ 3.0GHz
BenchmarkSplitterRecurrenceTyped-8   	 3479744	       344.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkPowerEvalTyped-8            	 1592734	       753.1 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mnoc/internal/phys	4.876s
goos: linux
goarch: amd64
pkg: mnoc
cpu: Example CPU @ 3.0GHz
BenchmarkQAPTaboo-8                  	     100	  10250000 ns/op	  524288 B/op	      12 allocs/op
BenchmarkJSONArtisinalEncoding/solve-8 	 4000000	       301.0 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	mnoc	12.3s
`

func TestParse(t *testing.T) {
	results, meta, err := Parse(strings.NewReader(rawBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if meta.GOOS != "linux" || meta.GOARCH != "amd64" || meta.CPU != "Example CPU @ 3.0GHz" {
		t.Errorf("meta headers not captured: %+v", meta)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}
	want := Result{
		Name: "mnoc/internal/phys.BenchmarkSplitterRecurrenceTyped",
		Runs: 3479744, NsPerOp: 344.5,
	}
	if results[0] != want {
		t.Errorf("first result %+v, want %+v", results[0], want)
	}
	// Sub-benchmark names keep their /part but lose the -procs suffix,
	// and the pkg: header in force qualifies them.
	if got := results[3].Name; got != "mnoc.BenchmarkJSONArtisinalEncoding/solve" {
		t.Errorf("sub-benchmark name %q", got)
	}
	if results[2].BytesPerOp != 524288 || results[2].AllocsPerOp != 12 {
		t.Errorf("benchmem columns not parsed: %+v", results[2])
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, _, err := Parse(strings.NewReader("PASS\nok\tmnoc\t0.1s\n")); err == nil {
		t.Fatal("no error for output without benchmark lines")
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo-128":      "BenchmarkFoo",
		"BenchmarkFoo":          "BenchmarkFoo", // GOMAXPROCS=1 omits the suffix
		"BenchmarkFoo/n=10-8":   "BenchmarkFoo/n=10",
		"BenchmarkFoo/a-b":      "BenchmarkFoo/a-b", // non-numeric tail is part of the name
		"BenchmarkFoo/deep-2-4": "BenchmarkFoo/deep-2",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	results, _, err := Parse(strings.NewReader(rawBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Meta{Date: "2026-08-08", GoVersion: "go1.24.0",
		GOOS: "linux", GOARCH: "amd64", Scale: "quick"}, results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != f.Meta || len(got.Results) != len(f.Results) {
		t.Fatalf("round trip changed the file: %+v vs %+v", got, f)
	}
	for i := range f.Results {
		if got.Results[i] != f.Results[i] {
			t.Errorf("result %d drifted: %+v vs %+v", i, got.Results[i], f.Results[i])
		}
	}
	// Writing is deterministic: same file, same bytes.
	var a, b bytes.Buffer
	if err := f.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("re-encoding the same file produced different bytes")
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	_, err := New(Meta{Date: "d", Scale: "quick"}, []Result{
		{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 1},
		{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 2},
	})
	if err == nil {
		t.Fatal("duplicate benchmark names accepted")
	}
}

// --- Comparator regression tests (the gate must gate) -----------------

// fixture builds a File from name -> [ns/op, allocs/op] pairs.
func fixture(t *testing.T, cpu string, rows map[string][2]float64) *File {
	t.Helper()
	var rs []Result
	for name, v := range rows {
		rs = append(rs, Result{Name: name, Runs: 100, NsPerOp: v[0], AllocsPerOp: int64(v[1])})
	}
	f, err := New(Meta{Date: "2026-08-08", Scale: "quick", CPU: cpu}, rs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestComparePass(t *testing.T) {
	base := fixture(t, "cpuA", map[string][2]float64{
		"mnoc.BenchmarkA": {100, 2},
		"mnoc.BenchmarkB": {500, 0},
	})
	// +10% ns/op and equal allocs: inside the default 15% envelope.
	cur := fixture(t, "cpuA", map[string][2]float64{
		"mnoc.BenchmarkA": {110, 2},
		"mnoc.BenchmarkB": {500, 0},
	})
	rep := Compare(base, cur, DefaultThresholds())
	if !rep.OK() {
		t.Fatalf("pass fixture failed the gate: %+v", rep)
	}
	if rep.Unchanged != 2 || rep.CPUMismatch {
		t.Errorf("report %+v, want 2 unchanged on matching CPUs", rep)
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := fixture(t, "", map[string][2]float64{"mnoc.BenchmarkA": {100, 0}})
	cur := fixture(t, "", map[string][2]float64{"mnoc.BenchmarkA": {116, 0}})
	rep := Compare(base, cur, DefaultThresholds())
	if rep.OK() {
		t.Fatal("+16% ns/op passed a 15% gate")
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0].Reason, "ns/op") {
		t.Fatalf("regressions %+v, want one ns/op reason", rep.Regressions)
	}
	// A looser threshold admits the same movement.
	if rep := Compare(base, cur, Thresholds{NsFrac: 0.25}); !rep.OK() {
		t.Errorf("+16%% failed a 25%% gate: %+v", rep)
	}
}

func TestCompareAllocsRegression(t *testing.T) {
	base := fixture(t, "", map[string][2]float64{"mnoc.BenchmarkA": {100, 0}})
	// Faster but allocating: still a regression — allocs are exact.
	cur := fixture(t, "", map[string][2]float64{"mnoc.BenchmarkA": {90, 1}})
	rep := Compare(base, cur, DefaultThresholds())
	if rep.OK() {
		t.Fatal("an allocs/op increase passed the gate")
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0].Reason, "allocs/op") {
		t.Fatalf("regressions %+v, want one allocs/op reason", rep.Regressions)
	}
}

func TestCompareAddedRemoved(t *testing.T) {
	base := fixture(t, "", map[string][2]float64{
		"mnoc.BenchmarkA": {100, 0},
		"mnoc.BenchmarkB": {100, 0},
	})
	cur := fixture(t, "", map[string][2]float64{
		"mnoc.BenchmarkA": {100, 0},
		"mnoc.BenchmarkC": {100, 0},
	})
	rep := Compare(base, cur, DefaultThresholds())
	if rep.OK() {
		t.Fatal("a silently-dropped baseline benchmark passed the gate")
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != "mnoc.BenchmarkB" {
		t.Errorf("removed %v, want [mnoc.BenchmarkB]", rep.Removed)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "mnoc.BenchmarkC" {
		t.Errorf("added %v, want [mnoc.BenchmarkC]", rep.Added)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"REMOVED mnoc.BenchmarkB", "added mnoc.BenchmarkC"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report text missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCompareImprovementAndCPUMismatch(t *testing.T) {
	base := fixture(t, "cpuA", map[string][2]float64{"mnoc.BenchmarkA": {100, 3}})
	cur := fixture(t, "cpuB", map[string][2]float64{"mnoc.BenchmarkA": {40, 1}})
	rep := Compare(base, cur, DefaultThresholds())
	if !rep.OK() {
		t.Fatalf("improvement failed the gate: %+v", rep)
	}
	if len(rep.Improvements) != 1 {
		t.Fatalf("improvements %+v, want one entry", rep.Improvements)
	}
	if !rep.CPUMismatch {
		t.Error("CPU mismatch not flagged")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "different CPUs") {
		t.Errorf("report text missing CPU warning:\n%s", buf.String())
	}
}

// TestFoldRepeats pins how `-count N` repeats become one row: the
// median ns/op (odd and even counts), the maximum allocs/op and B/op,
// the summed run count, and single rows passing through untouched.
// The folded rows are what New accepts.
func TestFoldRepeats(t *testing.T) {
	got := Fold([]Result{
		{Name: "mnoc.BenchmarkB", Runs: 10, NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 2},
		{Name: "mnoc.BenchmarkA", Runs: 5, NsPerOp: 40, AllocsPerOp: 1},
		{Name: "mnoc.BenchmarkB", Runs: 12, NsPerOp: 100, BytesPerOp: 96, AllocsPerOp: 3},
		{Name: "mnoc.BenchmarkC", Runs: 7, NsPerOp: 9, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "mnoc.BenchmarkB", Runs: 11, NsPerOp: 200, BytesPerOp: 64, AllocsPerOp: 2},
		{Name: "mnoc.BenchmarkA", Runs: 6, NsPerOp: 60, AllocsPerOp: 0},
	})
	want := []Result{
		{Name: "mnoc.BenchmarkA", Runs: 11, NsPerOp: 50, AllocsPerOp: 1},
		{Name: "mnoc.BenchmarkB", Runs: 33, NsPerOp: 200, BytesPerOp: 96, AllocsPerOp: 3},
		{Name: "mnoc.BenchmarkC", Runs: 7, NsPerOp: 9, BytesPerOp: 8, AllocsPerOp: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("folded %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := New(Meta{Date: "d", Scale: "quick"}, got); err != nil {
		t.Errorf("New rejected folded rows: %v", err)
	}
}

// TestFoldedOutlierPassesGate is the reason for folding: one slow
// repeat out of three does not move the median, so the ns/op gate
// stays quiet, while an allocation added in any repeat still fails.
func TestFoldedOutlierPassesGate(t *testing.T) {
	base := fixture(t, "", map[string][2]float64{"mnoc.BenchmarkA": {100, 1}})
	cur := func(rows ...Result) *File {
		f, err := New(Meta{Date: "d", Scale: "quick"}, Fold(rows))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	noisy := cur(
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 101, AllocsPerOp: 1},
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 160, AllocsPerOp: 1},
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 99, AllocsPerOp: 1},
	)
	if rep := Compare(base, noisy, DefaultThresholds()); !rep.OK() {
		t.Errorf("one slow repeat failed the gate: %+v", rep.Regressions)
	}
	alloc := cur(
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 100, AllocsPerOp: 1},
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 100, AllocsPerOp: 2},
		Result{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: 100, AllocsPerOp: 1},
	)
	if rep := Compare(base, alloc, DefaultThresholds()); rep.OK() {
		t.Error("an extra allocation in one repeat passed the gate")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, ns := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(Meta{Date: "d", Scale: "quick"}, []Result{{Name: "mnoc.BenchmarkA", Runs: 1, NsPerOp: ns}}); err == nil {
			t.Errorf("ns/op %v accepted", ns)
		}
	}
}
