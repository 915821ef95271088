// Command mnoc is the single entry point to the reproduction: every
// former mnoc-* tool is a subcommand sharing one execution engine
// (internal/runner) and, with -cache-dir, one persistent artifact
// cache.
//
// Usage:
//
//	mnoc bench [-exp all|ext|everything|<id>] [-scale paper|quick] [-seed N]
//	           [-json] [-csv dir] [-workers N] [-cache-dir dir] [-config f.json]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc power -i trace.trc | -matrix m.csv [-kind comm4|...] [-qap] [-cache-dir dir]
//	mnoc topo  [-n 64] [-bench water_s] [-kind comm2|...] [-qap] [-export f] [-cache-dir dir]
//	           (-kind: comm2, comm4, dist2, dist4, cluster, broadcast)
//	mnoc compare [-bench water_s] [-loss average|worst] [-scale paper|quick]
//	           [-seed N] [-qap] [-workers N] [-cache-dir dir] [-config f.json]
//	mnoc trace gen|info [flags]
//	mnoc sim   [-bench fft] [-n 64] [-net mnoc|rnoc|cmnoc|mwsr] [-accesses N]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc fault [-n 16] [-bench syn_uniform] [-scales 0,0.5,1,2,4] [-workers N]
//	           [-cache-dir dir] [-config f.json]
//	           [-metrics-out m.json] [-trace-out t.json] [-pprof addr]
//	mnoc serve [-addr :8080] [-scale paper|quick] [-seed N] [-workers N] [-queue N]
//	           [-cache-dir dir] [-config f.json] [-default-timeout-ms N]
//	           [-max-timeout-ms N] [-drain-ms N] [-fail-fast]
//	           [-adapt -adapt-trace f.trace [-adapt-window N] [-adapt-speed cps]
//	            [-adapt-guard-db dB] [-adapt-faults sched.txt]]
//	           [-artifact-serve] [-artifact-store url]
//	mnoc proxy -backends url1,url2[,...] [-addr :8090] [-replicas N]
//	           [-health-interval-ms N] [-failovers N] [-drain-ms N]
//	mnoc sweep [-exp all|ext|everything|<id>] [-scale paper|quick] [-seed N]
//	           [-workers N] [-cache-dir dir] [-addr url1,url2] [-artifact-store url]
//	           [-fault-scales 0,1,2 [-fault-bench b] [-fault-n N]] [-timeout-ms N]
//	mnoc load  [-url http://localhost:8080] [-addr url1,url2] [-requests N]
//	           [-concurrency N] [-bench b [-kind k] [-qap]] [-timeout-ms N]
//	           [-retries N] [-retry-seed N]
//	mnoc replay -trace f.trace [-window N] [-seed N] [-faults sched.txt] [-speed cps]
//	            [-log out.txt] | -gen [-out f.trace] [-n 16] [-phases b:cyc:flits,...]
//	mnoc benchjson emit [-in raw.txt] -out BENCH_<date>.json [-scale quick] [-date YYYY-MM-DD]
//	mnoc benchjson check -baseline BENCH_baseline.json -current BENCH_<date>.json
//	mnoc metricnames m.json
//
// serve exposes the engine over HTTP/JSON (docs/SERVER.md): POST
// /v1/solve, /v1/evaluate and /v1/bench behind bounded admission,
// per-request deadlines and request coalescing, plus GET /healthz,
// /version and /metrics (?format=prom for Prometheus text). load is
// its companion load generator. With -adapt, serve also runs the
// online adaptation loop (docs/ADAPT.md) and exposes GET /v1/adapt and
// POST /v1/adapt/evaluate; replay is its offline twin.
//
// The fleet trio (docs/FLEET.md): proxy consistent-hashes flight keys
// across replicas so identical requests coalesce at one backend;
// serve -artifact-serve exposes the artifact store over HTTP so
// replicas (-artifact-store) share one warm cache; sweep shards a
// design-space sweep over a work-stealing pool — locally or against
// live backends — and merges byte-identically to a single-process run.
//
// The observability trio (docs/TELEMETRY.md): -metrics-out writes the
// end-of-run counters/gauges/histograms as JSON, -trace-out writes the
// recorded spans (.jsonl = JSON Lines, otherwise Chrome trace JSON for
// chrome://tracing), -pprof serves net/http/pprof while running.
//
// benchjson and metricnames are the CI tools: the performance-baseline
// emitter/comparator (docs/BENCH.md) and the metric-name lister whose
// output is diffed against the testdata/golden/metrics_names*.txt lists.
//
// Every subcommand is a function of its arguments and output streams
// that returns an error; main maps the result to the exit status: 0 on
// success or -h, 2 for a usage error, 1 for anything else.
//
// Run `mnoc <subcommand> -h` for the full flag set of each.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
)

// commands maps each subcommand to its implementation and one-line
// summary, in help order. drain marks the subcommands that wind down
// cleanly when ctx is cancelled: for them SIGINT cancels ctx, for the
// rest it keeps its default, immediate effect.
var commands = []struct {
	name    string
	summary string
	drain   bool
	run     func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}{
	{"bench", "regenerate the paper's tables and figures", true, benchCmd},
	{"power", "evaluate a trace or matrix under a power topology", false, powerCmd},
	{"topo", "design a power topology and print its layout", false, topoCmd},
	{"compare", "compare power topologies under average vs worst-case loss", true, compareCmd},
	{"trace", "generate and inspect packet traces (gen | info)", false, traceCmd},
	{"sim", "run the trace-driven multicore simulation", false, simCmd},
	{"fault", "sweep fault intensity and report the degradation curve", false, faultCmd},
	{"serve", "run the HTTP/JSON evaluation service", true, serveCmd},
	{"proxy", "front a fleet of replicas with flight-key-affine routing", true, proxyCmd},
	{"sweep", "shard a design-space sweep over workers and merge deterministically", true, sweepCmd},
	{"load", "load-test a running server and report latency percentiles", true, loadCmd},
	{"replay", "replay a recorded trace through the online adaptation loop (or -gen one)", false, replayCmd},
	{"benchjson", "emit or check the BENCH_*.json performance baseline (emit | check)", false, benchjsonCmd},
	{"metricnames", "print the sorted metric names of a -metrics-out report", false, metricnamesCmd},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one mnoc command line and returns its exit status: 0 on
// success or -h, 2 for a missing or unknown subcommand or a usage
// error, and 1 for any other error, reported as "mnoc <sub>: <err>".
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, args := args[0], args[1:]
	switch name {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		if c.drain {
			var stop context.CancelFunc
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
			defer stop()
		}
		err := c.run(ctx, args, stdout, stderr)
		var u errUsage
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &u):
			if u != "" {
				fmt.Fprintln(stderr, u)
			}
			return 2
		}
		fmt.Fprintf(stderr, "mnoc %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stderr, "mnoc: unknown subcommand %q\n\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mnoc <subcommand> [flags]")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "run 'mnoc <subcommand> -h' for flags")
}

// errUsage reports command-line misuse: run exits 2 after printing the
// usage text it carries (empty when the flag package already did).
type errUsage string

func (e errUsage) Error() string { return string(e) }

// newFlagSet returns a subcommand's flag set, reporting to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mnoc "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. flag.ErrHelp passes through; any other
// parse error has already been printed with the usage, so it becomes a
// bare errUsage.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage("")
	}
	return err
}

// readFile opens path and decodes it with parse.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// writeFile creates path and fills it with write, reporting a failed
// close as well as a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
