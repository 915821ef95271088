package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/fleet"
	"mnoc/internal/runner"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
)

// sweepCmd regenerates the paper's tables and, with -fault-scales, the
// fault curve, locally on one runner or against live backends with
// -addr (docs/FLEET.md). Its stdout is byte-identical to `mnoc bench`
// of the same entries followed by `mnoc fault` of the same scales,
// each without its header: tables go to stdout, everything else to
// stderr, so `mnoc sweep | diff - golden` is the acceptance check.
func sweepCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sweep", stderr)
	which := fs.String("exp", "all", "experiment id, 'all' (paper artefacts), 'ext' (extensions), or 'everything' (ids: "+idList()+")")
	fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
	fs.Int64("seed", 1, "random seed for workloads and heuristics")
	workers := fs.Int("workers", 4, "worker count: the runner's pool, or with -addr the number of requests in flight")
	fs.String("cache-dir", "", "persistent artifact cache directory")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
	addrs := fs.String("addr", "", "comma-separated backend base URLs: run experiments remotely via POST /v1/bench instead of in-process")
	storeURL := fs.String("artifact-store", "", "remote artifact store base URL (a backend running -artifact-serve)")
	faultStr := fs.String("fault-scales", "", "comma-separated fault-rate multipliers to sweep after the tables (local mode only)")
	faultBench := fs.String("fault-bench", "syn_uniform", "workload for -fault-scales; overrides the -config fault section")
	faultN := fs.Int("fault-n", 16, "crossbar radix for -fault-scales; overrides the -config fault section")
	timeoutMS := fs.Int64("timeout-ms", 300_000, "client-side timeout per remote experiment")
	tf := addTelemetryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	entries, err := pickEntries(*which)
	if err != nil {
		return err
	}
	var faultScales []float64
	if *faultStr != "" {
		if faultScales, err = parseScales(*faultStr); err != nil {
			return err
		}
	}
	sw := sweep{entries: entries, tf: tf, stdout: stdout, stderr: stderr}
	startPprof(stderr, "sweep", *tf.pprofAddr)
	sw.begin = time.Now()

	if *addrs != "" {
		// The backends run on their own scale, seed and store, so a
		// local-only flag would be silently ignored.
		var localOnly string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale", "seed", "config", "cache-dir", "fault-scales":
				if localOnly == "" {
					localOnly = f.Name
				}
			}
		})
		if localOnly != "" {
			return fmt.Errorf("-%s needs local execution; drop -addr", localOnly)
		}
		return sw.remote(ctx, splitList(*addrs), *workers, *storeURL, time.Duration(*timeoutMS)*time.Millisecond)
	}
	cfg, err := runnerConfig(fs, *configPath)
	if err != nil {
		return err
	}
	cfg.FailFast = true
	if *storeURL != "" {
		remote := fleet.NewRemote(*storeURL)
		warnIfUnreachable(stderr, "sweep", remote)
		cfg.Store = remote
	}
	fc := faultConfig(cfg.Fault)
	fc.Scales = faultScales
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fault-bench":
			fc.Bench = *faultBench
		case "fault-n":
			fc.N = *faultN
		}
	})
	return sw.local(ctx, cfg, fc)
}

// sweep is one sweep run: the entries to run, and where its tables,
// progress and telemetry go.
type sweep struct {
	entries        []exp.Entry
	tf             *telemetryFlags
	stdout, stderr io.Writer
	begin          time.Time
}

// local runs the entries, then the fault sweep fc describes (none when
// fc.Scales is empty), on one runner, so both share its worker pool,
// artifact store and in-process memoisation. The fault sweep runs on
// the runner's seed. Each entry and each fault scale counts as one
// unit.
func (sw sweep) local(ctx context.Context, cfg runner.Config, fc runner.FaultConfig) error {
	r, err := runner.New(cfg)
	if err != nil {
		return err
	}
	reg := r.Telemetry()
	fleet.RegisterMetrics(reg)
	if err := r.Precompute(ctx); err != nil {
		return err
	}
	n, seed := r.Options().N, r.Options().Seed
	units := len(sw.entries) + len(fc.Scales)
	fmt.Fprintf(sw.stderr, "mnoc sweep: mode=local radix=%d seed=%d units=%d workers=%d\n",
		n, seed, units, r.Workers())

	tables, err := r.RunEntries(ctx, sw.entries)
	if err != nil {
		return err
	}
	unitsC := reg.Counter(fleet.MetricSweepUnits)
	unitsC.Add(uint64(len(tables)))
	var merged bytes.Buffer
	for _, t := range tables {
		if err := t.Fprint(&merged); err != nil {
			return fmt.Errorf("rendering table %s: %w", t.ID, err)
		}
	}
	if _, err := sw.stdout.Write(merged.Bytes()); err != nil {
		return err
	}
	sw.storeArtifact(r.Store(), fc.Scales, n, seed, merged.Bytes())

	if len(fc.Scales) > 0 {
		fc.Seed = seed
		res, err := r.FaultSweep(ctx, fc)
		if err != nil {
			return err
		}
		unitsC.Add(uint64(len(res.Points)))
		if err := res.Render(sw.stdout, false); err != nil {
			return err
		}
	}
	if err := sw.finish(reg, r.Tracer(), map[string]any{
		"subcommand": "sweep", "mode": "local", "radix": n,
		"seed": seed, "units": units, "workers": r.Workers(),
		"wall_ms": time.Since(sw.begin).Milliseconds(),
	}); err != nil {
		return err
	}
	fmt.Fprintln(sw.stderr, "mnoc sweep:", r.Summary())
	return nil
}

// remote runs the entries across live backends; fleet.RemoteSweep
// renders the returned tables locally, so the output matches the
// local path exactly.
func (sw sweep) remote(ctx context.Context, endpoints []string, workers int, storeURL string, timeout time.Duration) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("-addr parsed to an empty endpoint list")
	}
	ids := entryIDs(sw.entries)
	reg := telemetry.NewRegistry()
	fleet.RegisterMetrics(reg)
	fmt.Fprintf(sw.stderr, "mnoc sweep: mode=remote endpoints=%d units=%d workers=%d\n",
		len(endpoints), len(ids), workers)
	for _, ep := range endpoints {
		fmt.Fprintf(sw.stderr, "mnoc sweep:   endpoint %s\n", ep)
	}

	merged, err := fleet.RemoteSweep(ctx, ids, endpoints, workers, timeout, reg)
	if err != nil {
		return err
	}
	if _, err := sw.stdout.Write(merged); err != nil {
		return err
	}
	if storeURL != "" {
		remote := fleet.NewRemote(storeURL)
		warnIfUnreachable(sw.stderr, "sweep", remote)
		remote.Instrument(reg)
		sw.storeArtifact(remote, nil, 0, 0, merged)
	}
	return sw.finish(reg, telemetry.NewTracer(1), map[string]any{
		"subcommand": "sweep", "mode": "remote", "endpoints": len(endpoints),
		"units": len(ids), "workers": workers,
		"wall_ms": time.Since(sw.begin).Milliseconds(),
	})
}

func entryIDs(entries []exp.Entry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
	}
	return ids
}

// storeArtifact writes the merged sweep output as one content-addressed
// artifact and reports its key, so a fleet's sweep results are
// fetchable by content from the shared store.
func (sw sweep) storeArtifact(store artifact.Store, faultScales []float64, n int, seed int64, merged []byte) {
	key := artifact.NewKey(artifact.KindSweep, artifact.VersionSweep).
		Str("ids", strings.Join(entryIDs(sw.entries), ",")).
		Int("n", n).
		Int64("seed", seed).
		Floats("fault_scales", faultScales).
		Sum()
	if err := store.Put(key, artifact.EncodeSweep(merged)); err != nil {
		fmt.Fprintln(sw.stderr, "mnoc sweep: storing merged artifact:", err)
		return
	}
	where := "memory"
	if loc, ok := artifact.Unwrap(store).(artifact.Locator); ok {
		where = loc.Location()
	}
	fmt.Fprintf(sw.stderr, "mnoc sweep: merged artifact %s (%s)\n", key, where)
}

// finish reports the completed-unit count and writes the optional
// telemetry outputs.
func (sw sweep) finish(reg *telemetry.Registry, tracer *telemetry.Tracer, meta map[string]any) error {
	fmt.Fprintf(sw.stderr, "mnoc sweep: units=%d\n", reg.Snapshot().Counters[fleet.MetricSweepUnits])
	return writeTelemetry(reg, tracer, *sw.tf.metricsOut, *sw.tf.traceOut, meta)
}

// warnIfUnreachable pings the remote artifact store at startup: a
// typoed URL should warn loudly instead of silently degrading every
// read to a miss.
func warnIfUnreachable(stderr io.Writer, sub string, remote *fleet.Remote) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := remote.Ping(ctx); err != nil {
		fmt.Fprintf(stderr, "mnoc %s: warning: %v (store degrades to miss-only)\n", sub, err)
	}
}
