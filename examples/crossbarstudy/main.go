// Crossbar structure study on synthetic kernels.
//
// Using the same mNoC device models, this example compares three
// crossbar organisations — the paper's SWMR broadcast (with and without
// a power topology) and a Corona-style MWSR point-to-point design —
// across classic synthetic traffic kernels, reporting power and packet
// latency percentiles. It reproduces the structural tradeoff behind the
// paper's Section 6 positioning: MWSR wins on raw power, SWMR wins on
// latency, and power topologies close the power gap at SWMR latency.
//
//	go run ./examples/crossbarstudy
package main

import (
	"fmt"
	"log"

	"mnoc/internal/core"
	"mnoc/internal/noc"
	"mnoc/internal/power"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

const (
	n      = 64
	cycles = 200_000
	flits  = 100_000
)

func main() {
	sys, err := core.NewSystem(n)
	if err != nil {
		log.Fatal(err)
	}
	mwsr, err := power.NewMWSRNoC(sys.Cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-16s %10s %10s %10s | %8s %8s %8s\n",
		"kernel", "SWMR(W)", "SWMR+PT(W)", "MWSR(W)", "lat SWMR", "lat MWSR", "p99 MWSR")
	for _, kernel := range []string{"uniform", "transpose", "tornado", "hotspot", "neighbor"} {
		bench, err := workload.Synthetic(kernel)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := bench.Trace(n, cycles, flits, 1)
		if err != nil {
			log.Fatal(err)
		}
		profile := tr.Matrix()

		swmrW, ptW, mwsrW := evaluatePower(sys, mwsr, profile)
		swmrLat, mwsrStats := evaluateLatency(tr)

		fmt.Printf("%-16s %10.3f %10.3f %10.3f | %8.2f %8.2f %8d\n",
			kernel, swmrW, ptW, mwsrW, swmrLat, mwsrStats.AvgLatency, mwsrStats.P99Latency)
	}
	fmt.Println("\nSWMR+PT = 2-mode communication-aware power topology with QAP mapping")
}

func evaluatePower(sys *core.System, mwsr *power.MWSRNoC, profile *trace.Matrix) (swmrW, ptW, mwsrW float64) {
	base, err := sys.Design("base", nil)
	if err != nil {
		log.Fatal(err)
	}
	bb, err := base.Power(profile, cycles)
	if err != nil {
		log.Fatal(err)
	}

	mapped, err := base.WithQAPMapping(profile, core.QAPOptions{Seed: 1, Iterations: 600})
	if err != nil {
		log.Fatal(err)
	}
	coreTraffic, err := mapped.MappedTraffic(profile)
	if err != nil {
		log.Fatal(err)
	}
	pt, err := sys.Design("comm2", coreTraffic)
	if err != nil {
		log.Fatal(err)
	}
	pt, err = pt.WithMapping(mapped.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	pb, err := pt.Power(profile, cycles)
	if err != nil {
		log.Fatal(err)
	}

	mb, err := mwsr.Evaluate(profile, cycles)
	if err != nil {
		log.Fatal(err)
	}
	return bb.TotalWatts(), pb.TotalWatts(), mb.TotalWatts()
}

func evaluateLatency(tr *trace.Trace) (swmrAvg float64, mwsr noc.ReplayStats) {
	sw, err := noc.NewMNoC(n)
	if err != nil {
		log.Fatal(err)
	}
	swStats, err := noc.Replay(sw, tr)
	if err != nil {
		log.Fatal(err)
	}
	mw, err := noc.NewMWSR(n)
	if err != nil {
		log.Fatal(err)
	}
	mwStats, err := noc.Replay(mw, tr)
	if err != nil {
		log.Fatal(err)
	}
	return swStats.AvgLatency, mwStats
}
