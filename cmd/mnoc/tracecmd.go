package main

import (
	"context"
	"fmt"
	"io"

	"mnoc/internal/noc"
	"mnoc/internal/stats"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

const traceUsage = errUsage("usage: mnoc trace gen|info [flags]")

// traceCmd generates synthetic SPLASH-2 packet traces and inspects
// existing trace files.
func traceCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return traceUsage
	}
	switch args[0] {
	case "gen":
		return traceGen(args[1:], stdout, stderr)
	case "info":
		return traceInfo(args[1:], stdout, stderr)
	}
	return traceUsage
}

func traceGen(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace gen", stderr)
	var (
		bench  = fs.String("bench", "fft", "benchmark name")
		n      = fs.Int("n", 64, "node count")
		cycles = fs.Uint64("cycles", 100000, "trace duration in cycles")
		flits  = fs.Int("flits", 50000, "total flits to sample")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("o", "", "output file (default stdout)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := workload.Resolve(*bench)
	if err != nil {
		return err
	}
	tr, err := b.Trace(*n, *cycles, *flits, *seed)
	if err != nil {
		return err
	}
	if *out == "" {
		err = tr.Write(stdout)
	} else {
		err = writeFile(*out, tr.Write)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mnoc trace: wrote %d packets (%s, n=%d, %d cycles)\n",
		len(tr.Packets), *bench, *n, *cycles)
	return nil
}

func traceInfo(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace info", stderr)
	var (
		in      = fs.String("i", "", "input trace file (required)")
		heatmap = fs.Bool("heatmap", false, "print the traffic matrix as an ASCII heatmap")
		replay  = fs.String("replay", "", "replay the trace on a timing model ("+networkNames+") and print latency stats")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -i is required")
	}
	tr, err := readFile(*in, trace.Read)
	if err != nil {
		return err
	}
	m := tr.Matrix()
	fmt.Fprintf(stdout, "nodes:        %d\n", tr.N)
	fmt.Fprintf(stdout, "cycles:       %d\n", tr.Cycles)
	fmt.Fprintf(stdout, "packets:      %d\n", len(tr.Packets))
	fmt.Fprintf(stdout, "flits:        %.0f\n", tr.TotalFlits())
	fmt.Fprintf(stdout, "flits/cycle:  %.4f\n", tr.TotalFlits()/float64(tr.Cycles))
	fmt.Fprintf(stdout, "avg distance: %.1f\n", m.AvgDistance())
	if *heatmap {
		fmt.Fprintln(stdout, "traffic matrix (dark = heavy):")
		if err := stats.Heatmap(stdout, m.Counts, 32); err != nil {
			return err
		}
	}
	if *replay == "" {
		return nil
	}
	net, err := newNetwork(*replay, tr.N)
	if err != nil {
		return err
	}
	st, err := noc.Replay(net, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replay on %s:\n", st.NetworkName)
	fmt.Fprintf(stdout, "  avg latency: %.2f cycles\n", st.AvgLatency)
	fmt.Fprintf(stdout, "  p50/p99/max: %d / %d / %d cycles\n", st.P50Latency, st.P99Latency, st.MaxLatency)
	fmt.Fprintf(stdout, "  finish:      cycle %d\n", st.FinishCycle)
	return nil
}
