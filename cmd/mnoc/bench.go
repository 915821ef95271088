package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/runner"
)

// benchCmd regenerates the paper's tables and figures through the
// runner engine: entries are scheduled on a bounded worker pool, and
// with -cache-dir every solved artefact persists so a warm re-run
// skips the QAP and splitter searches entirely (the run summary on
// stderr shows the hit/miss and solve counters).
func benchCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("bench", stderr)
	which := fs.String("exp", "all", "experiment id, 'all' (paper artefacts), 'ext' (extensions), or 'everything' (ids: "+idList()+")")
	fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
	fs.Int64("seed", 1, "random seed for workloads and heuristics")
	fs.Bool("json", false, "emit results as a JSON array instead of text tables")
	fs.Int("workers", 0, "worker goroutines for precomputation and experiment scheduling")
	fs.String("csv", "", "also write each experiment's table as <dir>/<id>.csv")
	fs.String("cache-dir", "", "persistent artifact cache directory (warm runs skip every solve)")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
	fs.Bool("fail-fast", false, "cancel the run on the first entry error instead of reporting all failures")
	addTelemetryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	entries, err := pickEntries(*which)
	if err != nil {
		return err
	}
	cfg, err := runnerConfig(fs, *configPath)
	if err != nil {
		return err
	}
	r, err := runner.New(cfg)
	if err != nil {
		return err
	}
	startPprof(stderr, "bench", cfg.PprofAddr)
	begin := time.Now()
	if err := r.Precompute(ctx); err != nil {
		return err
	}
	if !cfg.JSON {
		fmt.Fprintf(stdout, "mnoc bench: scale=%s radix=%d seed=%d experiments=%d workers=%d\n\n",
			scaleName(cfg), r.Options().N, r.Options().Seed, len(entries), r.Workers())
	}
	if err := r.Run(ctx, stdout, entries); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "mnoc bench:", r.Summary())
	meta := map[string]any{
		"subcommand":  "bench",
		"scale":       scaleName(cfg),
		"radix":       r.Options().N,
		"seed":        r.Options().Seed,
		"experiments": len(entries),
		"workers":     r.Workers(),
		"wall_ms":     time.Since(begin).Milliseconds(),
	}
	return writeTelemetry(r.Telemetry(), r.Tracer(), cfg.MetricsOut, cfg.TraceOut, meta)
}

// runnerConfig resolves a runner.Config the way docs/RUNNER.md states:
// the -config file (if any) first, then every runner flag the command
// line set explicitly, so `-workers 2` beats a file that says 8. Flags
// are read back by name through flag.Getter, so a subcommand registers
// only the ones it offers.
func runnerConfig(fs *flag.FlagSet, path string) (runner.Config, error) {
	var cfg runner.Config
	if path != "" {
		var err error
		if cfg, err = runner.LoadConfig(path); err != nil {
			return cfg, err
		}
	}
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch f.Name {
		case "scale":
			cfg.Scale, cfg.Options = v.(string), nil
		case "seed":
			cfg.Seed = v.(int64)
		case "workers":
			cfg.Workers = v.(int)
		case "cache-dir":
			cfg.CacheDir = v.(string)
		case "json":
			cfg.JSON = v.(bool)
		case "csv":
			cfg.CSVDir = v.(string)
		case "fail-fast":
			cfg.FailFast = v.(bool)
		case "metrics-out":
			cfg.MetricsOut = v.(string)
		case "trace-out":
			cfg.TraceOut = v.(string)
		case "pprof":
			cfg.PprofAddr = v.(string)
		}
	})
	return cfg, nil
}

// scaleName names the resolved scale for the run header.
func scaleName(cfg runner.Config) string {
	switch {
	case cfg.Options != nil:
		return "custom"
	case cfg.Scale == "":
		return "paper"
	default:
		return cfg.Scale
	}
}

// pickEntries resolves -exp: a group name or one experiment id from
// either registry (the paper artefacts or the extensions).
func pickEntries(which string) ([]exp.Entry, error) {
	switch which {
	case "all":
		return exp.Registry(), nil
	case "ext":
		return exp.Extensions(), nil
	case "everything":
		return append(exp.Registry(), exp.Extensions()...), nil
	}
	if e, err := exp.ByID(which); err == nil {
		return []exp.Entry{e}, nil
	}
	if e, err := exp.ExtensionByID(which); err == nil {
		return []exp.Entry{e}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q: not a paper artefact or an extension (want all, ext, everything or one of %s)", which, idList())
}

func idList() string {
	var ids []string
	for _, e := range append(exp.Registry(), exp.Extensions()...) {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ",")
}
