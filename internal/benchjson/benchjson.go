// Package benchjson is the machine-readable performance-baseline layer
// (docs/BENCH.md): it parses `go test -bench` output into a stable JSON
// schema (BENCH_<date>.json), reads and writes those files, and
// compares a current measurement against a committed baseline so CI can
// fail on a hot-path regression instead of a human noticing one in a
// scrollback.
//
// The package is deliberately free of clocks and environment probes —
// the date, scale and go version are inputs — so the same raw benchmark
// text always produces the same file bytes (the repository's
// determinism discipline, docs/LINT.md).
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Schema is the BENCH_*.json schema version. Bump it when a field
// changes meaning; the comparator refuses to diff across versions.
const Schema = 1

// Meta records where and how a benchmark file was measured. NsPerOp
// comparisons are only meaningful when the measuring hardware matches,
// so the CPU string rides along for the comparator's diagnostics.
type Meta struct {
	Schema    int    `json:"schema"`
	Date      string `json:"date"` // YYYY-MM-DD, UTC
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	// Scale names the experiment scale the curated set ran at
	// (quick = radix 64, paper = radix 256).
	Scale string `json:"scale"`
}

// Result is one benchmark measurement: the three numbers the speed
// campaign tracks, plus the iteration count they were averaged over.
type Result struct {
	// Name is the package-qualified benchmark name with the GOMAXPROCS
	// suffix stripped: "mnoc/internal/phys.BenchmarkPowerEvalTyped".
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is one BENCH_*.json: metadata plus the curated results, sorted
// by name so the file diffs cleanly in review.
type File struct {
	Meta    Meta     `json:"meta"`
	Results []Result `json:"results"`
}

// Validate checks schema compatibility and the sorted-unique name
// invariant every writer of this package maintains.
func (f *File) Validate() error {
	if f.Meta.Schema != Schema {
		return fmt.Errorf("benchjson: schema %d, this tool understands %d", f.Meta.Schema, Schema)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("benchjson: no benchmark results")
	}
	for i, r := range f.Results {
		if r.Name == "" {
			return fmt.Errorf("benchjson: result %d has no name", i)
		}
		if r.Runs <= 0 {
			return fmt.Errorf("benchjson: %s ran %d times", r.Name, r.Runs)
		}
		if r.NsPerOp < 0 || r.BytesPerOp < 0 || r.AllocsPerOp < 0 {
			return fmt.Errorf("benchjson: %s has a negative measurement", r.Name)
		}
		if math.IsNaN(r.NsPerOp) || math.IsInf(r.NsPerOp, 0) {
			return fmt.Errorf("benchjson: %s has a non-finite ns/op", r.Name)
		}
		if i > 0 && f.Results[i-1].Name >= r.Name {
			return fmt.Errorf("benchjson: results not sorted-unique at %q", r.Name)
		}
	}
	return nil
}

// New assembles a validated File from parsed results: names are sorted
// and duplicates rejected (two benchmarks of the same qualified name
// would silently shadow each other in the baseline). `mnoc benchjson
// emit` passes its rows through Fold first, so there the repeated names
// of a `-count N` run are repeats, merged into one row, not an error.
func New(meta Meta, results []Result) (*File, error) {
	meta.Schema = Schema
	rs := append([]Result(nil), results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	f := &File{Meta: meta, Results: rs}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Fold merges the repeated rows of a `go test -count N` run into one
// result per name, sorted by name: the median ns/op (the mean of the
// middle two for an even count), so one noisy repeat cannot trip the
// ns/op gate on its own; the maximum allocs/op and B/op, so the exact
// allocation gate still sees the worst repeat; and the total run count.
// Names seen once pass through unchanged.
func Fold(results []Result) []Result {
	rs := append([]Result(nil), results...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	var out []Result
	for lo := 0; lo < len(rs); {
		hi := lo + 1
		for hi < len(rs) && rs[hi].Name == rs[lo].Name {
			hi++
		}
		folded := rs[lo]
		ns := make([]float64, 0, hi-lo)
		for i, r := range rs[lo:hi] {
			ns = append(ns, r.NsPerOp)
			if i > 0 {
				folded.Runs += r.Runs
				folded.BytesPerOp = max(folded.BytesPerOp, r.BytesPerOp)
				folded.AllocsPerOp = max(folded.AllocsPerOp, r.AllocsPerOp)
			}
		}
		sort.Float64s(ns)
		mid := len(ns) / 2
		folded.NsPerOp = ns[mid]
		if len(ns)%2 == 0 {
			folded.NsPerOp = (ns[mid-1] + ns[mid]) / 2
		}
		out = append(out, folded)
		lo = hi
	}
	return out
}

// Write writes the file as indented JSON with a trailing newline.
func (f *File) Write(w io.Writer) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: encoding: %w", err)
	}
	if _, err := w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("benchjson: writing: %w", err)
	}
	return nil
}

// WriteFile writes the file to path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("benchjson: closing %s: %w", path, err)
	}
	return nil
}

// ReadFile loads and validates a BENCH_*.json.
func ReadFile(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &f, nil
}

// Lookup returns the result named name, if present.
func (f *File) Lookup(name string) (Result, bool) {
	i := sort.Search(len(f.Results), func(i int) bool { return f.Results[i].Name >= name })
	if i < len(f.Results) && f.Results[i].Name == name {
		return f.Results[i], true
	}
	return Result{}, false
}
