package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mnoc/internal/benchjson"
	"mnoc/internal/telemetry"
)

const benchjsonUsage = errUsage(`usage:
  mnoc benchjson emit  [-in raw.txt] -out BENCH_<date>.json [-scale quick] [-date YYYY-MM-DD]
  mnoc benchjson check -baseline BENCH_baseline.json -current BENCH_<date>.json [-ns-threshold 0.15] [-allocs-extra 0]`)

// benchjsonCmd is the performance-baseline tool (docs/BENCH.md). emit
// parses `go test -bench -benchmem` output (stdin or -in) into the
// machine-readable BENCH_*.json schema, folding the repeats of a
// `-count N` run into one row each (benchjson.Fold); check compares a
// current file against the committed baseline and fails on a
// regression — >15% ns/op growth (tunable) or any allocs/op growth — or
// on a baseline benchmark that was silently dropped. `make bench` and `make bench-check` wire
// the two together.
func benchjsonCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return benchjsonUsage
	}
	switch args[0] {
	case "emit":
		return benchjsonEmit(args[1:], stdout, stderr)
	case "check":
		return benchjsonCheck(args[1:], stdout, stderr)
	}
	return benchjsonUsage
}

func benchjsonEmit(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("benchjson emit", stderr)
	in := fs.String("in", "", "go test -bench output to parse (default stdin)")
	out := fs.String("out", "", "BENCH_*.json to write (default stdout)")
	scale := fs.String("scale", "quick", "experiment scale the curated set ran at")
	date := fs.String("date", "", "measurement date, YYYY-MM-DD (default today, UTC)")
	goVersion := fs.String("go-version", runtime.Version(), "go toolchain version recorded in meta")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	results, meta, err := benchjson.Parse(src)
	if err != nil {
		return err
	}
	meta.Scale = *scale
	meta.GoVersion = *goVersion
	meta.Date = *date
	if meta.Date == "" {
		meta.Date = time.Now().UTC().Format("2006-01-02")
	}
	if meta.GOOS == "" {
		meta.GOOS = runtime.GOOS
	}
	if meta.GOARCH == "" {
		meta.GOARCH = runtime.GOARCH
	}
	f, err := benchjson.New(meta, benchjson.Fold(results))
	if err != nil {
		return err
	}
	if *out == "" {
		return f.Write(stdout)
	}
	if err := f.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mnoc benchjson: wrote %d benchmark(s) to %s\n", len(f.Results), *out)
	return nil
}

func benchjsonCheck(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("benchjson check", stderr)
	basePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline file")
	curPath := fs.String("current", "", "freshly measured file (required)")
	nsFrac := fs.Float64("ns-threshold", benchjson.DefaultThresholds().NsFrac,
		"allowed fractional ns/op growth (0.15 = +15%)")
	allocsExtra := fs.Int64("allocs-extra", benchjson.DefaultThresholds().AllocsExtra,
		"allowed absolute allocs/op growth (0 fails on any increase)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *curPath == "" {
		return benchjsonUsage
	}
	base, err := benchjson.ReadFile(*basePath)
	if err != nil {
		return err
	}
	cur, err := benchjson.ReadFile(*curPath)
	if err != nil {
		return err
	}
	rep := benchjson.Compare(base, cur, benchjson.Thresholds{NsFrac: *nsFrac, AllocsExtra: *allocsExtra})
	if err := rep.WriteText(stdout); err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("%d regression(s), %d removed benchmark(s) vs %s",
			len(rep.Regressions), len(rep.Removed), *basePath)
	}
	return nil
}

// metricnamesCmd prints the sorted metric names found in a telemetry
// report file (as written by `mnoc ... -metrics-out`), one per line. CI
// diffs this against testdata/golden/metrics_names*.txt so a renamed or
// dropped metric fails loudly instead of silently breaking downstream
// dashboards.
func metricnamesCmd(_ context.Context, args []string, stdout, _ io.Writer) error {
	if len(args) != 1 {
		return errUsage("usage: mnoc metricnames <metrics-report.json>")
	}
	rep, err := readFile(args[0], func(r io.Reader) (rep telemetry.Report, err error) {
		if err := json.NewDecoder(r).Decode(&rep); err != nil {
			return rep, fmt.Errorf("parsing %s: %w", args[0], err)
		}
		return rep, nil
	})
	if err != nil {
		return err
	}
	for _, name := range rep.Metrics.Names() {
		fmt.Fprintln(stdout, name)
	}
	return nil
}
