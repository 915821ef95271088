package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// faultCmd sweeps device-fault intensity over a workload and reports
// the degradation curve: delivered-vs-offered reliability and the power
// overhead of the recovery controller against a fault-oblivious
// baseline. Both runs see the *same* deterministic fault schedule at
// each sweep point, so the comparison isolates the recovery ladder. Sweep points run in parallel on the worker pool;
// output is deterministic for fixed flags.
func faultCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	def := runner.DefaultFaultConfig()
	fs := newFlagSet("fault", stderr)
	n := fs.Int("n", def.N, "crossbar radix")
	bench := fs.String("bench", def.Bench, "workload (SPLASH stand-in or syn_*)")
	cycles := fs.Uint64("cycles", def.Cycles, "trace duration in cycles")
	flits := fs.Int("flits", def.Flits, "total flits injected")
	seed := fs.Int64("seed", def.Seed, "seed for trace and fault injection")
	scalesArg := fs.String("scales", formatScales(def.Scales), "comma-separated fault-rate multipliers")
	saveSched := fs.String("save-schedule", "", "write the last sweep point's fault schedule to this file")
	loadSched := fs.String("schedule", "", "replay this fault schedule instead of sweeping (single point)")
	verbose := fs.Bool("v", false, "log every recovery action")
	fs.Int("workers", 0, "worker goroutines for parallel sweep points (0 = default)")
	fs.String("cache-dir", "", "persistent artifact cache directory (reuses traces across runs)")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override its fault section")
	addTelemetryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	base, err := runnerConfig(fs, *configPath)
	if err != nil {
		return err
	}
	fc := faultConfig(base.Fault)
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			fc.N = *n
		case "bench":
			fc.Bench = *bench
		case "cycles":
			fc.Cycles = *cycles
		case "flits":
			fc.Flits = *flits
		case "seed":
			fc.Seed = *seed
		case "scales":
			fc.Scales, err = parseScales(*scalesArg)
		case "save-schedule":
			fc.SaveSchedulePath = *saveSched
		case "schedule":
			fc.SchedulePath = *loadSched
		case "v":
			fc.Verbose = *verbose
		}
	})
	if err != nil {
		return err
	}
	workers := base.ResolveWorkers()

	store, err := runner.NewStore(base.CacheDir)
	if err != nil {
		return err
	}
	startPprof(stderr, "fault", base.PprofAddr)
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	begin := time.Now()
	res, err := runner.FaultSweep(ctx, store, workers, fc, reg, tracer)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "mnoc fault: n=%d bench=%s cycles=%d flits=%d seed=%d\n",
		fc.N, res.Bench, fc.Cycles, fc.Flits, fc.Seed)
	fmt.Fprintf(stdout, "network: %d modes, %d packets offered per point\n\n", res.Modes, res.Packets)
	if err := res.Render(stdout, fc.Verbose); err != nil {
		return err
	}

	if fc.SaveSchedulePath != "" {
		if err := res.SaveSchedule(fc.SaveSchedulePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote fault schedule to %s\n", fc.SaveSchedulePath)
	}

	meta := map[string]any{
		"subcommand": "fault",
		"n":          fc.N,
		"bench":      res.Bench,
		"seed":       fc.Seed,
		"points":     len(res.Points),
		"workers":    workers,
		"wall_ms":    time.Since(begin).Milliseconds(),
	}
	return writeTelemetry(reg, tracer, base.MetricsOut, base.TraceOut, meta)
}

// faultConfig starts from a config file's fault section and fills the
// fields it leaves unset with the historical mnoc-fault defaults.
// `mnoc fault` and `mnoc sweep -fault-scales` both start from it, so
// one config file drives both the same way.
func faultConfig(fc runner.FaultConfig) runner.FaultConfig {
	def := runner.DefaultFaultConfig()
	if fc.N == 0 {
		fc.N = def.N
	}
	if fc.Bench == "" {
		fc.Bench = def.Bench
	}
	if fc.Cycles == 0 {
		fc.Cycles = def.Cycles
	}
	if fc.Flits == 0 {
		fc.Flits = def.Flits
	}
	if fc.Seed == 0 {
		fc.Seed = def.Seed
	}
	if len(fc.Scales) == 0 && fc.SchedulePath == "" {
		fc.Scales = def.Scales
	}
	return fc
}

// parseScales parses the comma-separated multiplier list.
func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad scale %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales in %q", s)
	}
	return out, nil
}

// formatScales renders a multiplier list for a flag default.
func formatScales(scales []float64) string {
	parts := make([]string, len(scales))
	for i, s := range scales {
		parts[i] = strconv.FormatFloat(s, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
