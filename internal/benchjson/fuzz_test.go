package benchjson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParse hammers both readers of the package: the `go test -bench`
// text behind `mnoc benchjson emit` (Parse, Fold, New) and the
// BENCH_*.json behind `mnoc benchjson check` (decode, Validate,
// Compare). Whatever the input, neither panics; a File New accepts
// validates and encodes, and a valid decoded File compares clean
// against itself.
func FuzzParse(f *testing.F) {
	f.Add([]byte(rawBenchOutput))
	f.Add([]byte(rawBenchOutput + rawBenchOutput))
	f.Add([]byte("pkg: mnoc\nBenchmarkA-2 10 NaN ns/op\n"))
	f.Add([]byte("BenchmarkA 1 -5 ns/op 1e300 B/op -1 allocs/op\n"))
	f.Add([]byte("BenchmarkA-2 0 1 ns/op\nBenchmarkA-2 3\n"))
	f.Add([]byte(strings.Repeat("x", 70*1024) + "\n"))
	f.Add([]byte(`{"meta":{"schema":1,"date":"d","scale":"quick"},"results":[{"name":"a","runs":1,"ns_per_op":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if results, meta, err := Parse(bytes.NewReader(data)); err == nil {
			if file, err := New(meta, Fold(results)); err == nil {
				if err := file.Validate(); err != nil {
					t.Fatalf("New returned a file that fails Validate: %v", err)
				}
				if err := file.Write(&bytes.Buffer{}); err != nil {
					t.Fatalf("New returned a file that does not encode: %v", err)
				}
			}
		}
		var file File
		if json.Unmarshal(data, &file) != nil || file.Validate() != nil {
			return
		}
		if rep := Compare(&file, &file, DefaultThresholds()); !rep.OK() {
			t.Fatalf("a valid file regressed against itself: %+v", rep)
		}
	})
}
