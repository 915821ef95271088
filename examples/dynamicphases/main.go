// Dynamic adaptation on a phased workload (paper future work,
// Sections 4.4/6/7).
//
// A workload that changes communication phase mid-run (ocean → fft →
// barnes) defeats any single static thread mapping. This example runs
// the online controller: per epoch it observes traffic, migrates a
// bounded number of threads when the energy math works out, and gates
// idle waveguides — then compares against keeping the initial mapping.
//
//	go run ./examples/dynamicphases
package main

import (
	"fmt"
	"log"
	"strings"

	"mnoc/internal/dynamic"
	"mnoc/internal/exp"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/workload"
)

func main() {
	const n = 64

	// A 2-mode distance-based power topology (the paper's simplest
	// deployable design) carries the traffic.
	net, err := exp.BuildDesign(power.DefaultConfig(n), exp.DesignDist2, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Three phases with different communication shapes.
	tr, err := workload.PhasedTrace(n, []workload.Phase{
		{Bench: "ocean_c", Cycles: 12_000_000, Flits: 600_000},
		{Bench: "fft", Cycles: 12_000_000, Flits: 600_000},
		{Bench: "barnes", Cycles: 12_000_000, Flits: 600_000},
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i := range tr.Packets {
		tr.Packets[i].Flits *= 16 // cache-line bursts
	}

	res, err := dynamic.Run(net, tr, mapping.Identity(n), dynamic.DefaultPolicy())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("epoch  adaptive(W)  static(W)  moves  active-guides")
	for _, e := range res.Epochs {
		marker := ""
		if e.Migrations > 0 {
			marker = "  <- migrated"
		}
		fmt.Printf("%5d  %10.3f  %9.3f  %5d  %s%s\n",
			e.Epoch, e.AdaptiveW, e.StaticW, e.Migrations,
			gauge(e.ActiveWaveguideFrac), marker)
	}
	fmt.Printf("\ntotal: adaptive %.3f W vs static %.3f W (%.1f%% saved)\n",
		res.TotalAdaptiveW, res.TotalStaticW,
		100*(1-res.TotalAdaptiveW/res.TotalStaticW))
}

// gauge renders a 0..1 fraction as a tiny bar.
func gauge(f float64) string {
	full := int(f*10 + 0.5)
	return "[" + strings.Repeat("#", full) + strings.Repeat(".", 10-full) + "]"
}
