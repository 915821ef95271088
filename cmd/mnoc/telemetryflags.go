package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on -pprof

	"mnoc/internal/runner"
	"mnoc/internal/telemetry"
)

// telemetryFlags is the observability flag trio shared by the bench,
// sim, fault, sweep and replay subcommands: where to write the metrics
// report and the span trace, and whether to serve pprof while running.
type telemetryFlags struct {
	metricsOut *string
	traceOut   *string
	pprofAddr  *string
}

// addTelemetryFlags registers -metrics-out, -trace-out and -pprof.
func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	return &telemetryFlags{
		metricsOut: fs.String("metrics-out", "",
			"write the end-of-run metrics report (JSON: meta + counters/gauges/histograms) to this file"),
		traceOut: fs.String("trace-out", "",
			"write recorded spans to this file (.jsonl = JSON Lines; otherwise Chrome trace JSON for chrome://tracing)"),
		pprofAddr: fs.String("pprof", "",
			"serve net/http/pprof on this address (e.g. localhost:6060) while the run executes"),
	}
}

// startPprof serves the pprof handlers in the background when addr is
// non-empty. A bind failure is reported but never kills the run: the
// profile server is an observer, not a participant.
func startPprof(stderr io.Writer, sub, addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(stderr, "mnoc %s: pprof server: %v\n", sub, err)
		}
	}()
}

// writeTelemetry writes the metrics report and/or span trace as
// requested; empty paths are skipped.
func writeTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer,
	metricsOut, traceOut string, meta map[string]any) error {
	if metricsOut != "" {
		rep := telemetry.Report{Meta: meta, Metrics: reg.Snapshot()}
		if err := writeFile(metricsOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := runner.WriteTraceFile(tracer, traceOut); err != nil {
			return err
		}
	}
	return nil
}
