package main

import (
	"context"
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

// sweepCmd is the sharded sweep coordinator (docs/FLEET.md): it splits
// a design-space sweep — experiment entries and, optionally, fault
// points — into units, runs them in unit order on a worker pool
// (locally, or against live backends with -addr), and merges the
// partial tables deterministically. The merged stdout is
// byte-identical to a single-process `mnoc bench` run of the same
// entries: tables go to stdout, everything else to stderr, so
// `mnoc sweep | diff - golden` is the acceptance check.
func sweepCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sweep", stderr)
	which := fs.String("exp", "all", "experiment id, 'all' (paper artefacts), 'ext' (extensions), or 'everything' (ids: "+idList()+")")
	fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
	fs.Int64("seed", 1, "random seed for workloads and heuristics")
	workers := fs.Int("workers", 4, "sweep worker count (each worker runs one unit at a time)")
	fs.String("cache-dir", "", "persistent artifact cache directory")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
	addrs := fs.String("addr", "", "comma-separated backend base URLs: run units remotely via POST /v1/bench instead of in-process")
	storeURL := fs.String("artifact-store", "", "remote artifact store base URL (a backend running -artifact-serve)")
	faultStr := fs.String("fault-scales", "", "comma-separated fault-rate multipliers to sweep as extra units (local mode only)")
	faultBench := fs.String("fault-bench", "syn_uniform", "workload for -fault-scales")
	faultN := fs.Int("fault-n", 16, "crossbar radix for -fault-scales")
	timeoutMS := fs.Int64("timeout-ms", 300_000, "client-side per-unit timeout for remote units")
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
	sw := sweep{entries: entries, workers: *workers, tf: tf, stdout: stdout, stderr: stderr}
	startPprof(stderr, "sweep", *tf.pprofAddr)
	sw.begin = time.Now()

	if *addrs != "" {
		if len(faultScales) > 0 {
			return fmt.Errorf("-fault-scales needs local execution; drop -addr")
		}
		return sw.remote(ctx, splitList(*addrs), *storeURL, time.Duration(*timeoutMS)*time.Millisecond)
	}
	// -workers sizes the sweep pool here, not the runner's.
	cfg, err := runnerConfig(fs, *configPath, "workers")
	if err != nil {
		return err
	}
	cfg.FailFast = true
	if *storeURL != "" {
		remote := fleet.NewRemote(*storeURL)
		warnIfUnreachable(stderr, "sweep", remote)
		cfg.Store = remote
	}
	return sw.local(ctx, cfg, faultScales, *faultBench, *faultN)
}

// sweep is one coordinator run: the entries to shard, the pool width,
// and where its tables, progress and telemetry go.
type sweep struct {
	entries        []exp.Entry
	workers        int
	tf             *telemetryFlags
	stdout, stderr io.Writer
	begin          time.Time
}

// local runs every unit in-process over one shared runner, so units
// share its artifact store and in-process memoisation exactly like a
// single-process bench run.
func (sw sweep) local(ctx context.Context, cfg runner.Config, faultScales []float64, faultBench string, faultN int) error {
	r, err := runner.New(cfg)
	if err != nil {
		return err
	}
	fleet.RegisterMetrics(r.Telemetry())
	if err := r.Precompute(ctx); err != nil {
		return err
	}

	units := fleet.EntryUnits(r, sw.entries)
	var fc runner.FaultConfig
	var faultShards []*runner.FaultSweepResult
	if len(faultScales) > 0 {
		fc = runner.DefaultFaultConfig()
		fc.Scales = faultScales
		fc.Bench = faultBench
		fc.N = faultN
		fc.Seed = r.Options().Seed
		faultShards = make([]*runner.FaultSweepResult, len(fc.Scales))
		units = append(units, fleet.FaultUnits(r, fc, faultShards)...)
	}
	fmt.Fprintf(sw.stderr, "mnoc sweep: mode=local radix=%d seed=%d units=%d workers=%d\n",
		r.Options().N, r.Options().Seed, len(units), sw.workers)

	outs, err := fleet.RunUnits(ctx, units, sw.workers, r.Telemetry())
	if err != nil {
		return err
	}
	merged := fleet.Merge(outs)
	if _, err := sw.stdout.Write(merged); err != nil {
		return err
	}
	if len(faultScales) > 0 {
		res, err := fleet.MergeFaultResults(fc, faultShards)
		if err != nil {
			return err
		}
		if err := res.Render(sw.stdout, false); err != nil {
			return err
		}
	}
	sw.storeArtifact(r.Store(), faultScales, r.Options().N, r.Options().Seed, merged)
	if err := sw.finish(r.Telemetry(), r.Tracer(), map[string]any{
		"subcommand": "sweep", "mode": "local", "radix": r.Options().N,
		"seed": r.Options().Seed, "units": len(units), "workers": sw.workers,
		"wall_ms": time.Since(sw.begin).Milliseconds(),
	}); err != nil {
		return err
	}
	fmt.Fprintln(sw.stderr, "mnoc sweep:", r.Summary())
	return nil
}

// remote shards the entries across live backends; each unit POSTs
// /v1/bench and renders the returned tables locally, so the merged
// bytes match the local path exactly.
func (sw sweep) remote(ctx context.Context, endpoints []string, storeURL string, timeout time.Duration) error {
	if len(endpoints) == 0 {
		return fmt.Errorf("-addr parsed to an empty endpoint list")
	}
	ids := entryIDs(sw.entries)
	reg := telemetry.NewRegistry()
	fleet.RegisterMetrics(reg)
	fmt.Fprintf(sw.stderr, "mnoc sweep: mode=remote endpoints=%d units=%d workers=%d\n",
		len(endpoints), len(ids), sw.workers)
	for _, ep := range endpoints {
		fmt.Fprintf(sw.stderr, "mnoc sweep:   endpoint %s\n", ep)
	}

	outs, err := fleet.RunUnits(ctx, fleet.RemoteEntryUnits(ids, endpoints, timeout), sw.workers, reg)
	if err != nil {
		return err
	}
	merged := fleet.Merge(outs)
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
		"units": len(ids), "workers": sw.workers,
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
