// Top-level benchmark harness: one testing.B benchmark per reproduced
// paper table/figure (run them with `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core algorithms (splitter design, topology
// search, QAP mapping, power evaluation, trace replay, multicore
// simulation).
//
// The figure benchmarks run at the Quick scale (radix 64) so a full
// -bench=. sweep finishes in minutes; `mnoc bench -scale paper`
// regenerates everything at the paper's radix 256.
package main_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/mapping"
	"mnoc/internal/noc"
	"mnoc/internal/power"
	"mnoc/internal/sim"
	"mnoc/internal/splitter"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/workload"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *exp.Context
	benchCtxErr  error
)

// ctx returns the shared Quick-scale experiment context; building it
// once keeps the per-figure benchmarks from re-running the QAP searches
// every iteration.
func ctx(b *testing.B) *exp.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = exp.NewContext(exp.Quick())
	})
	if benchCtxErr != nil {
		b.Fatal(benchCtxErr)
	}
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	c := ctx(b)
	e, err := exp.ByID(id)
	if err != nil {
		if e, err = exp.ExtensionByID(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure -----------------------------

func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkTable4(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkAppSpecific(b *testing.B) { benchExperiment(b, "appspecific") }
func BenchmarkSensitivity(b *testing.B) { benchExperiment(b, "sensitivity") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }

// --- Extension experiments (paper Sections 4.1/4.5/6/7 + ablations) ---

func BenchmarkExtConventional(b *testing.B) { benchExperiment(b, "conventional") }
func BenchmarkExtJoint(b *testing.B)        { benchExperiment(b, "joint") }
func BenchmarkExtDynamic(b *testing.B)      { benchExperiment(b, "dynamic") }
func BenchmarkExtBroadcastInv(b *testing.B) { benchExperiment(b, "broadcastinv") }
func BenchmarkExtMWSR(b *testing.B)         { benchExperiment(b, "mwsr") }
func BenchmarkExtProtocol(b *testing.B)     { benchExperiment(b, "protocol") }
func BenchmarkExtSignal(b *testing.B)       { benchExperiment(b, "signal") }
func BenchmarkExtVariation(b *testing.B)    { benchExperiment(b, "variation") }
func BenchmarkExtDesignSpace(b *testing.B)  { benchExperiment(b, "designspace") }
func BenchmarkExtTrimSweep(b *testing.B)    { benchExperiment(b, "trimsweep") }
func BenchmarkExtLoadSweep(b *testing.B)    { benchExperiment(b, "loadsweep") }
func BenchmarkExtSummary(b *testing.B)      { benchExperiment(b, "summary") }
func BenchmarkExtAlphaGrid(b *testing.B)    { benchExperiment(b, "alphagrid") }

// --- Algorithm micro-benchmarks ---------------------------------------

// BenchmarkSplitterDesign measures one source's Appendix-A splitter
// solve on the paper-scale radix-256 waveguide (4 power modes).
func BenchmarkSplitterDesign(b *testing.B) {
	p := splitter.DefaultParams(256)
	modeOf := make([]int, 256)
	for j := range modeOf {
		modeOf[j] = j % 4
	}
	modeOf[128] = -1
	w := topo.UniformWeights(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitter.Solve(p, 128, modeOf, w); err != nil {
			b.Fatal(err)
		}
	}
}

// alphasSink keeps BenchmarkOptimalAlphas' result live.
var alphasSink []float64

// BenchmarkOptimalAlphas measures the Appendix-A α search alone for 3,
// 4 and 8 power modes: radix-256 mode costs from source 128 with the
// modes interleaved, uniform weights.
func BenchmarkOptimalAlphas(b *testing.B) {
	p := splitter.DefaultParams(256)
	for _, m := range []int{3, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			modeOf := make([]int, 256)
			for j := range modeOf {
				modeOf[j] = j % m
			}
			modeOf[128] = -1
			costs, err := splitter.ModeCosts(p, 128, modeOf, m)
			if err != nil {
				b.Fatal(err)
			}
			w := topo.UniformWeights(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alphasSink = splitter.OptimalAlphas(costs, w)
			}
		})
	}
}

// BenchmarkCommAware2ModeSweep measures the exact per-source binary
// partition sweep over a full radix-256 profile.
func BenchmarkCommAware2ModeSweep(b *testing.B) {
	m, err := workload.All()[0].Matrix(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := splitter.DefaultParams(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.CommAware2Mode(m, p, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQAPTaboo measures 100 robust-taboo iterations on a radix-64
// water_spatial instance (the paper's Section 4.4 heuristic).
func BenchmarkQAPTaboo(b *testing.B) {
	bench, err := workload.ByName("water_s")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bench.Matrix(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := mapping.FromTraffic(m, splitter.DefaultParams(64).Layout)
	if err != nil {
		b.Fatal(err)
	}
	start := prob.CenterGreedy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Taboo(start, mapping.TabooOptions{Seed: int64(i), Iterations: 100})
	}
}

// BenchmarkQAPTaboo256 is BenchmarkQAPTaboo at the paper's radix 256,
// where the O(n²) per-move delta refresh dominates.
func BenchmarkQAPTaboo256(b *testing.B) {
	bench, err := workload.ByName("water_s")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bench.Matrix(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := mapping.FromTraffic(m, splitter.DefaultParams(256).Layout)
	if err != nil {
		b.Fatal(err)
	}
	start := prob.CenterGreedy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Taboo(start, mapping.TabooOptions{Seed: int64(i), Iterations: 100})
	}
}

// BenchmarkPowerEvaluate measures one full-crossbar power evaluation of
// a radix-256 traffic matrix under a 4-mode topology.
func BenchmarkPowerEvaluate(b *testing.B) {
	cfg := power.DefaultConfig(256)
	t, err := topo.DistanceBased(256, []int{64, 64, 64, 63})
	if err != nil {
		b.Fatal(err)
	}
	net, err := power.NewMNoC(cfg, t, power.UniformWeighting(4))
	if err != nil {
		b.Fatal(err)
	}
	m, err := workload.All()[2].Matrix(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	// The first call builds the network's pricing plan.
	if _, err := net.Evaluate(m, 1e6); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Evaluate(m, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerEvaluateKinds measures one instrumented EvaluateLoss
// (the serve path's call) per design kind, radix and loss model, on
// the ocean_c matrix the kinds' communication-aware fits also use. The
// kinds span the pricing plan's shapes: a handful of mode runs per
// source (base, dist2, dist4, cluster2) up to about two destinations
// per run (comm4 at radix 256).
func BenchmarkPowerEvaluateKinds(b *testing.B) {
	for _, n := range []int{64, 256} {
		m, err := workload.All()[2].Matrix(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []string{exp.DesignBase, exp.DesignDist2, exp.DesignDist4, exp.DesignCluster2, exp.DesignComm4} {
			net, err := exp.BuildDesign(power.DefaultConfig(n), kind, m)
			if err != nil {
				b.Fatal(err)
			}
			net.Instrument(telemetry.NewRegistry())
			for _, model := range []power.LossModel{power.LossAverage, power.LossWorst} {
				b.Run(fmt.Sprintf("n=%d/kind=%s/loss=%s", n, kind, model), func(b *testing.B) {
					// The first call builds the network's pricing plan.
					if _, err := net.EvaluateLoss(m, 1e6, model); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := net.EvaluateLoss(m, 1e6, model); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// replayRadixes are the network sizes of the replay benchmarks: a
// scaling curve from 16 nodes to the paper's radix 256.
var replayRadixes = []int{16, 32, 64, 128, 256}

// BenchmarkNoCReplay measures replaying a 20k-packet trace through the
// mNoC timing model at each radix, uninstrumented.
func BenchmarkNoCReplay(b *testing.B) { benchReplay(b, nil) }

// BenchmarkNoCReplayObserved is BenchmarkNoCReplay with a registry
// attached, as the load sweep replays: it adds the noc.replay.*
// telemetry the sweep pays on top of the replay itself.
func BenchmarkNoCReplayObserved(b *testing.B) { benchReplay(b, telemetry.NewRegistry()) }

func benchReplay(b *testing.B, reg *telemetry.Registry) {
	bench, err := workload.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range replayRadixes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr, err := bench.Trace(n, 100000, 20000, 1)
			if err != nil {
				b.Fatal(err)
			}
			net, err := noc.NewMNoC(n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := noc.ReplayObserved(net, tr, reg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulticoreSim measures the Graphite-substitute simulator:
// 64 cores, MOSI directory, mNoC timing, 200 accesses per core. The
// construct sub-benchmark times building the network and the machine
// (caches, directory); run times Machine.Run on a freshly built one.
func BenchmarkMulticoreSim(b *testing.B) {
	bench, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(64)
	streams, err := sim.StreamsFromBenchmark(bench, cfg, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	construct := func(b *testing.B) *sim.Machine {
		net, err := noc.NewMNoC(64)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sim.NewMachine(cfg, net)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			construct(b)
		}
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := construct(b)
			b.StartTimer()
			if _, err := m.Run(streams); err != nil {
				b.Fatal(err)
			}
		}
	})
}
