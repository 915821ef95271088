package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, with a zero-length
// measured phase: one warm-up and one measured pass or reproduction.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 2, trace: trace, golden: testGolden}
			if name == "reproduce-quick" && !trace {
				cfg.seed = 1 // exercise the golden comparison
			}
			o, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := result(o, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			// The stage walls plus the unattributed rest are the total.
			sum := res.Metrics["exp.unattributed_ms"].Value
			for _, st := range stageMetrics {
				sum += res.Metrics[st].Value
			}
			if total := res.Metrics["trace.total_ms"].Value; math.Abs(sum-total) > 1e-6*total {
				t.Errorf("%s: stage walls + unattributed = %v ms, total %v ms", name, sum, total)
			}
		}
	}
}

// stageMetrics are the walls of a traced walk's top-level stages.
var stageMetrics = []string{
	"runner.new_ms", "server.new_ms", "workload.shape_ms", "mapping.qap_ms",
	"splitter.design_network_ms", "sim.performance_ms", "power.evaluate_ms", "runner.run_entries_ms",
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogues in this package in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	slices.Sort(names)
	slices.Sort(known)
	if !slices.Equal(names, known) {
		t.Errorf("workloads: BENCHMARK.json %v, perfbench %v", names, known)
	}
	for _, tc := range []struct {
		kind string
		file []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer()}} {
		var got, want []string
		for _, m := range tc.file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range tc.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: BENCHMARK.json %v\nperfbench %v", tc.kind, got, want)
		}
	}
}
