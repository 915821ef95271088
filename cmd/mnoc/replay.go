package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mnoc/internal/adapt"
	"mnoc/internal/fault"
	"mnoc/internal/phys"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// replayCmd feeds a recorded traffic trace through the online
// adaptation controller (internal/adapt) in lockstep, printing the
// decision log — the offline twin of `mnoc serve -adapt`. With -gen it
// instead records a phased workload trace in the canonical text format
// (docs/ADAPT.md), the input the replay and CI smoke jobs consume.
func replayCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("replay", stderr)
	var s adaptSetup
	fs.StringVar(&s.tracePath, "trace", "", "recorded traffic trace (mnoc-adapt-trace v1 text format)")
	fs.Uint64Var(&s.window, "window", 25_000, "observation window length in cycles")
	fs.Int64Var(&s.seed, "seed", 7, "seed for the warm-started QAP re-solves")
	fs.IntVar(&s.qapIters, "qap-iters", 0, "tabu-search iterations per re-solve (0 = 40*n)")
	fs.Float64Var(&s.guardDB, "guard-db", 0.5, "chip-wide drive guard band in dB for margin and loss checks")
	fs.StringVar(&s.faultsPath, "faults", "", "optional fault schedule to replay alongside the traffic (mnoc-fault-schedule v1)")
	fs.Float64Var(&s.speed, "speed", 0, "replay pacing in cycles per second (0 = as fast as possible)")
	logOut := fs.String("log", "", "write the decision log to this file instead of stdout")

	gen := fs.Bool("gen", false, "generate a phased trace instead of replaying one")
	out := fs.String("out", "", "with -gen: output file (default stdout)")
	n := fs.Int("n", 16, "with -gen: node count")
	phases := fs.String("phases", "water_s:100000:2000,radix:100000:2000",
		"with -gen: comma-separated bench:cycles:flits phases")
	tel := addTelemetryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	startPprof(stderr, "replay", *tel.pprofAddr)

	if *gen {
		return genTrace(stdout, *out, *n, *phases, s.seed)
	}
	if s.tracePath == "" {
		return fmt.Errorf("need -trace (or -gen); run 'mnoc replay -h'")
	}
	reg := telemetry.NewRegistry()
	c, tr, err := s.controller(reg)
	if err != nil {
		return err
	}
	begin := time.Now()
	if err := s.replay(c, tr); err != nil {
		return err
	}
	wall := time.Since(begin)

	writeLog := func(w io.Writer) error { return adapt.WriteLog(w, c.Log()) }
	if *logOut == "" {
		err = writeLog(stdout)
	} else {
		err = writeFile(*logOut, writeLog)
	}
	if err != nil {
		return err
	}
	st := c.Status()
	fmt.Fprintf(stderr,
		"mnoc replay: %d packets over %d windows in %.2fs | gen %d | triggers %d resolves %d swaps %d rollbacks %d rejected %d suppressed %d\n",
		len(tr.Packets), st.Counts.Windows, wall.Seconds(), st.Generation,
		st.Counts.Triggers, st.Counts.Resolves, st.Counts.Swaps,
		st.Counts.Rollbacks, st.Counts.Rejected, st.Counts.Suppressed)
	meta := map[string]any{"subcommand": "replay", "trace": s.tracePath, "window": s.window, "seed": s.seed}
	return writeTelemetry(reg, nil, *tel.metricsOut, "", meta)
}

// adaptSetup describes one adaptation run from the command line; it is
// shared by `replay` and `serve -adapt`.
type adaptSetup struct {
	tracePath  string  // recorded traffic (mnoc-adapt-trace v1)
	faultsPath string  // optional fault schedule replayed alongside
	window     uint64  // observation window, cycles
	seed       int64   // seed for the warm-started QAP re-solves
	qapIters   int     // tabu iterations per re-solve (0 = default)
	guardDB    float64 // guard band for the margin and loss checks
	speed      float64 // pacing in cycles per second (0 = unpaced)
}

// controller loads the trace and the optional fault schedule and builds
// the adaptation controller, publishing into tel. Lockstep is on: the
// feeder joins each background re-solve at the next window boundary, so
// the decision log is a deterministic function of the trace and seed.
func (s adaptSetup) controller(tel *telemetry.Registry) (*adapt.Controller, *trace.Trace, error) {
	tr, err := readFile(s.tracePath, adapt.ParseTrace)
	if err != nil {
		return nil, nil, err
	}
	cfg := adapt.Config{
		N:            tr.N,
		WindowCycles: s.window,
		Seed:         s.seed,
		QAPIters:     s.qapIters,
		GuardDB:      phys.Decibels(s.guardDB),
		Lockstep:     true,
		Tel:          tel,
	}
	if s.faultsPath != "" {
		if cfg.Faults, err = readFile(s.faultsPath, fault.Parse); err != nil {
			return nil, nil, err
		}
	}
	ctrl, err := adapt.NewController(cfg)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, tr, nil
}

// replay feeds the trace through the controller, sleeping one window's
// worth of wall time per window when a pacing speed is set.
func (s adaptSetup) replay(ctrl *adapt.Controller, tr *trace.Trace) error {
	perWindow := func(uint64) {}
	if s.speed > 0 {
		delay := time.Duration(float64(s.window) / s.speed * float64(time.Second))
		perWindow = func(uint64) { time.Sleep(delay) }
	}
	return ctrl.Replay(tr, perWindow)
}

// genTrace records a phased workload trace in the canonical format, to
// out or (when out is empty) stdout.
func genTrace(stdout io.Writer, out string, n int, phasesSpec string, seed int64) error {
	var phases []workload.Phase
	for _, part := range strings.Split(phasesSpec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return fmt.Errorf("malformed phase %q, want bench:cycles:flits", part)
		}
		cycles, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("phase %q cycles: %w", part, err)
		}
		flits, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("phase %q flits: %w", part, err)
		}
		phases = append(phases, workload.Phase{Bench: fields[0], Cycles: cycles, Flits: flits})
	}
	tr, err := workload.PhasedTrace(n, phases, seed)
	if err != nil {
		return err
	}
	write := func(w io.Writer) error { return adapt.WriteTrace(w, tr) }
	if out == "" {
		return write(stdout)
	}
	return writeFile(out, write)
}
