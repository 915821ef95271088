package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"mnoc/internal/noc"
	"mnoc/internal/sim"
	"mnoc/internal/telemetry"
	"mnoc/internal/workload"
)

// simCmd runs the trace-driven multicore simulation (the Graphite
// substitute) of a benchmark over a chosen NoC and reports runtime,
// memory behaviour and the communication trace it produced.
func simCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sim", stderr)
	var (
		bench    = fs.String("bench", "fft", "benchmark name")
		n        = fs.Int("n", 64, "core count")
		netKind  = fs.String("net", "mnoc", "network model: "+networkNames)
		accesses = fs.Int("accesses", 1000, "memory accesses per core")
		traceOut = fs.String("trace", "", "write the generated packet trace to this file")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	tf := addTelemetryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	startPprof(stderr, "sim", *tf.pprofAddr)

	net, err := newNetwork(*netKind, *n)
	if err != nil {
		return err
	}
	b, err := workload.Resolve(*bench)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(*n)
	streams, err := sim.StreamsFromBenchmark(b, cfg, *accesses, *seed)
	if err != nil {
		return err
	}
	machine, err := sim.NewMachine(cfg, net)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	spanTracer := telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	machine.SetTelemetry(reg, spanTracer)
	begin := time.Now()
	res, err := machine.Run(streams)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "benchmark:      %s (%s)\n", b.Name, b.Description)
	fmt.Fprintf(stdout, "network:        %s\n", res.NetworkName)
	fmt.Fprintf(stdout, "runtime:        %d cycles\n", res.RuntimeCycles)
	fmt.Fprintf(stdout, "accesses:       %d (%d L2 misses, %.1f%%)\n",
		res.Accesses, res.L2Misses, 100*float64(res.L2Misses)/float64(res.Accesses))
	fmt.Fprintf(stdout, "avg miss stall: %.1f cycles\n", res.AvgMemLatency)
	fmt.Fprintf(stdout, "packets:        %d\n", len(res.Trace.Packets))
	fmt.Fprintf(stdout, "directory:      reads=%d writes=%d fwds=%d invs=%d\n",
		res.Directory.Reads, res.Directory.Writes, res.Directory.Forwards, res.Directory.InvalidationsSent)

	if *traceOut != "" {
		if err := writeFile(*traceOut, res.Trace.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written:  %s\n", *traceOut)
	}

	meta := map[string]any{
		"subcommand": "sim",
		"bench":      b.Name,
		"n":          *n,
		"net":        *netKind,
		"accesses":   *accesses,
		"seed":       *seed,
		"wall_ms":    time.Since(begin).Milliseconds(),
	}
	return writeTelemetry(reg, spanTracer, *tf.metricsOut, *tf.traceOut, meta)
}

// networkNames is the timing-model set `sim -net` and
// `trace info -replay` accept.
const networkNames = "mnoc, rnoc, cmnoc, mwsr"

// newNetwork builds the named timing model at radix n; the clustered
// models use 4-node clusters.
func newNetwork(name string, n int) (noc.Network, error) {
	switch name {
	case "mnoc":
		return noc.NewMNoC(n)
	case "rnoc":
		return noc.NewRNoC(n, 4)
	case "cmnoc":
		return noc.NewCMNoC(n, 4)
	case "mwsr":
		return noc.NewMWSR(n)
	}
	return nil, fmt.Errorf("unknown network %q (want one of %s)", name, networkNames)
}
