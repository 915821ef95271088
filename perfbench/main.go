// Command perfbench is the repository's end-to-end benchmark. It drives
// the evaluation engine in-process through the public entry points of
// its layers (runner, server, exp.Context, power.MNoC) and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it makes a separate traced run that times the same
// public calls from outside and reports the per-layer metrics. Every
// run checks the program's outputs and exits 1 on a mismatch. The
// workloads, their metrics and the layer map are described in
// perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"

	"mnoc/internal/exp"
)

// workers pins the runner pool, the server's compute workers and the
// number of client connections to the two CPUs of the reference
// machine, so the end-to-end numbers do not depend on a default that
// assumes more cores than the host has.
const workers = 2

// goldenPath is the quick-scale golden the reproduce-quick workload
// checks its seed-1 tables against (read, never written).
const goldenPath = "testdata/golden/bench_quick.txt"

type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the traced metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"runner.new_ms", "ms"},
		{"server.new_ms", "ms"},
		{"workload.shape_ms", "ms"},
		{"mapping.qap_ms", "ms"},
		{"splitter.design_network_ms", "ms"},
		{"sim.performance_ms", "ms"},
		{"sim.ns_per_access", "ns"},
		{"runner.run_entries_ms", "ms"},
	}
	for _, e := range allEntries() {
		defs = append(defs, metricDef{"exp.entry." + e.ID + "_ms", "ms"})
	}
	defs = append(defs, []metricDef{
		{"exp.unattributed_ms", "ms"},
		{"trace.total_ms", "ms"},
		{"trace.overhead_ms", "ms"},
		{"net.roundtrip_us", "us"},
		{"server.handler_us", "us"},
		{"net.transport_us", "us"},
		{"exp.evaluate_design_us", "us"},
		{"exp.performance_us", "us"},
		{"power.evaluate_ms", "ms"},
		{"power.evaluate_us", "us"},
		{"power.reprice_us", "us"},
		{"server.other_us", "us"},
	}...)
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	for _, c := range runCounters {
		defs = append(defs, metricDef{c, "count"})
	}
	for _, c := range serveCounters {
		defs = append(defs, metricDef{c, "count"})
	}
	return append(defs, metricDef{"power.evaluations_per_request", "count"})
}

// layers are the span layers whose self time the traced run reports.
// "bench" is the benchmark's own time between calls.
var layers = []string{"bench", "runner", "workload", "mapping", "splitter", "sim", "exp", "power", "server", "net"}

// runCounters are read from the runner's telemetry registry at the end
// of a traced run.
var runCounters = []string{
	"solve.shapes", "solve.qap", "solve.networks", "solve.sims",
	"artifact.miss", "artifact.put",
	"sim.runs", "sim.accesses", "sim.packets", "noc.replay.packets",
	"power.evaluations",
}

// serveCounters are registry deltas over the traced run's untraced
// request passes, so they describe warm serving only.
var serveCounters = []string{
	"server.requests", "server.coalesced", "server.errors", "server.rejected", "solve.count",
}

// allEntries is `mnoc bench -exp everything`: the paper's artefacts
// followed by the extensions.
func allEntries() []exp.Entry { return append(exp.Registry(), exp.Extensions()...) }

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	golden  string // golden table file; reproduce-quick only
	spans   string // where a traced run writes its spans ("" = not written)
}

// outcome is what a workload measured: operation counts and metric
// values by name (units come from the catalogues above).
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
}

// workloads maps each BENCHMARK.json workload onto its driver.
var workloads = map[string]func(context.Context, runConfig) (outcome, error){
	"reproduce-quick":      reproduceQuick,
	"serve-solve-paper":    serveSolvePaper,
	"serve-evaluate-worst": serveEvaluateWorst,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result shapes an outcome into the output line: exactly the metrics of
// the selected catalogue, each with its unit. A metric outside the
// catalogue or a non-finite value is a benchmark bug.
func result(o outcome, trace bool) (resultOut, error) {
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	// A failed operation is a wrong output, so it makes the run incorrect.
	out := resultOut{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for name := range o.metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			return resultOut{}, fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !trace {
			return resultOut{}, fmt.Errorf("end-to-end metric %q not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return resultOut{}, fmt.Errorf("metric %q is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// liveHeapMB is the heap still reachable at the end of a run: two GCs
// first, so sync.Pool victim caches are dropped too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spans   = flag.String("spans", "", "traced runs write their spans here as JSON lines")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace %d, want 0 or 1", *trace))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, golden: goldenPath, spans: *spans}
	o, err := run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	res, err := result(o, cfg.trace)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fail(errors.New("output check failed (see above)"))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
