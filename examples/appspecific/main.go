// Application-specific topology for an embedded SoC (Section 5.5).
//
// The paper notes custom power topologies pay off "for embedded systems
// or situations with known specific communication patterns". This
// example builds such a pattern from scratch — a streaming pipeline of
// IP blocks with a DMA hub, not a SPLASH benchmark — and designs an
// application-specific 2-mode topology plus mapping for it using only
// the public API.
//
//	go run ./examples/appspecific
package main

import (
	"fmt"
	"log"

	"mnoc/internal/core"
	"mnoc/internal/trace"
)

func main() {
	const n = 32
	sys, err := core.NewSystem(n)
	if err != nil {
		log.Fatal(err)
	}

	// A fixed embedded traffic pattern: camera -> ISP -> encoder
	// pipeline stages (heavy point-to-point), a DMA hub everyone
	// touches, and light control traffic.
	traffic := trace.NewMatrix(n)
	const (
		dmaHub     = 5
		flowHeavy  = 50000
		flowMedium = 8000
		flowLight  = 300
	)
	// Pipeline stages live on arbitrary (non-adjacent!) nodes — the
	// whole point of power topologies is that low-power modes need not
	// be contiguous.
	pipeline := []int{2, 29, 11, 24, 7, 18}
	for i := 0; i+1 < len(pipeline); i++ {
		traffic.Counts[pipeline[i]][pipeline[i+1]] = flowHeavy
	}
	for node := 0; node < n; node++ {
		if node != dmaHub {
			traffic.Counts[node][dmaHub] += flowMedium
			traffic.Counts[dmaHub][node] += flowMedium
		}
		ctl := (node + 13) % n
		if ctl != node {
			traffic.Counts[node][ctl] += flowLight
		}
	}

	base, err := sys.Design("base", nil)
	if err != nil {
		log.Fatal(err)
	}
	baseW, err := base.Power(traffic, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}

	// Offline mapping + custom 2-mode topology, as an ASIC flow would.
	mapped, err := base.WithQAPMapping(traffic, core.QAPOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	coreTraffic, err := mapped.MappedTraffic(traffic)
	if err != nil {
		log.Fatal(err)
	}
	custom, err := sys.Design("comm2", coreTraffic)
	if err != nil {
		log.Fatal(err)
	}
	custom, err = custom.WithMapping(mapped.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	customW, err := custom.Power(traffic, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("embedded pipeline on a radix-%d mNoC\n", n)
	fmt.Printf("  broadcast interconnect: %8.3f W\n", baseW.TotalWatts())
	fmt.Printf("  custom 2-mode topology: %8.3f W\n", customW.TotalWatts())
	fmt.Printf("  saved:                  %8.1f %%\n", 100*(1-customW.TotalUW()/baseW.TotalUW()))

	// Show that the pipeline's heavy links all landed in the low mode.
	inLow := 0
	for i := 0; i+1 < len(pipeline); i++ {
		s := mapped.Mapping[pipeline[i]]
		d := mapped.Mapping[pipeline[i+1]]
		if custom.Topology.ModeOf[s][d] == 0 {
			inLow++
		}
	}
	fmt.Printf("  pipeline links in the low power mode: %d/%d\n", inLow, len(pipeline)-1)
}
