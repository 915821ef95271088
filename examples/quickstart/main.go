// Quickstart: the paper's whole pipeline in a dozen lines.
//
// Profile a workload, design a communication-aware 4-mode power
// topology, map threads with taboo search, and compare the result
// against the broadcast-only baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mnoc/internal/core"
)

func main() {
	// A radix-64 crossbar keeps the example fast; use 256 for the
	// paper's full scale.
	sys, err := core.NewSystem(64)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Profile: a calibrated traffic matrix for water_spatial.
	profile, err := sys.Profile("water_s", 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Baseline: the single-mode broadcast mNoC.
	base, err := sys.Design("base", nil)
	if err != nil {
		log.Fatal(err)
	}
	basePower, err := base.Power(profile, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Thread mapping: place frequently-communicating threads near
	//    the middle of the serpentine waveguide.
	mapped, err := base.WithQAPMapping(profile, core.QAPOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	coreTraffic, err := mapped.MappedTraffic(profile)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Power topology: a 4-mode communication-aware design on the
	//    mapped traffic, evaluated with the same mapping.
	pt, err := sys.Design("comm4", coreTraffic)
	if err != nil {
		log.Fatal(err)
	}
	pt, err = pt.WithMapping(mapped.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	ptPower, err := pt.Power(profile, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("water_spatial on a radix-%d mNoC crossbar\n", sys.N())
	fmt.Printf("  broadcast baseline:        %6.2f W\n", basePower.TotalWatts())
	fmt.Printf("  4-mode topology + mapping: %6.2f W\n", ptPower.TotalWatts())
	fmt.Printf("  reduction:                 %6.1f %%\n",
		100*(1-ptPower.TotalUW()/basePower.TotalUW()))
}
