// Thread-mapping study: why "where a thread runs" changes NoC power.
//
// The serpentine waveguide gives every core position a different
// broadcast cost (the paper's Figure 6); the quadratic-assignment
// mapping exploits that profile plus communication locality. This
// example prints the power profile, runs taboo search and simulated
// annealing on the same instance, and shows the traffic heatmap before
// and after mapping (Figure 7 in miniature).
//
//	go run ./examples/threadmapping
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"mnoc/internal/core"
	"mnoc/internal/mapping"
	"mnoc/internal/stats"
)

func main() {
	const n = 64
	sys, err := core.NewSystem(n)
	if err != nil {
		log.Fatal(err)
	}
	base, err := sys.Design("base", nil)
	if err != nil {
		log.Fatal(err)
	}

	// The Figure 6 power profile as a bar sketch.
	fmt.Println("broadcast power by source position (Fig. 6):")
	maxP := 0.0
	profile := make([]float64, n)
	for src := 0; src < n; src++ {
		profile[src] = float64(base.Network.SourceElectricalUW(src, 0))
		if profile[src] > maxP {
			maxP = profile[src]
		}
	}
	for src := 0; src < n; src += 8 {
		bar := strings.Repeat("#", int(40*profile[src]/maxP))
		fmt.Printf("  core %2d |%s %.2f\n", src, bar, profile[src]/maxP)
	}

	// A QAP instance from water_spatial traffic.
	traffic, err := sys.Profile("water_s", 1)
	if err != nil {
		log.Fatal(err)
	}
	prob, err := mapping.FromTraffic(traffic, sys.Cfg.Splitter.Layout)
	if err != nil {
		log.Fatal(err)
	}
	id := mapping.Identity(n)
	greedy := prob.CenterGreedy()
	taboo := prob.Taboo(greedy, mapping.TabooOptions{Seed: 1, Iterations: 4000})
	anneal := prob.Anneal(greedy, mapping.AnnealOptions{Seed: 1, Iterations: 30000})

	fmt.Println("\nQAP objective (lower = better):")
	fmt.Printf("  naive identity:      %.3g\n", prob.Objective(id))
	fmt.Printf("  centre greedy:       %.3g\n", prob.Objective(greedy))
	fmt.Printf("  simulated annealing: %.3g\n", prob.Objective(anneal))
	fmt.Printf("  robust taboo:        %.3g  (the paper finds taboo best)\n", prob.Objective(taboo))

	// Power impact on the broadcast design.
	baseW, err := base.Power(traffic, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}
	mappedDesign, err := base.WithMapping(taboo)
	if err != nil {
		log.Fatal(err)
	}
	mapW, err := mappedDesign.Power(traffic, core.ProfileCycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbroadcast mNoC power: naive %.2f W -> taboo-mapped %.2f W (%.1f%% saved)\n",
		baseW.TotalWatts(), mapW.TotalWatts(), 100*(1-mapW.TotalUW()/baseW.TotalUW()))

	// Fig. 7-style heatmaps.
	mappedTraffic, err := traffic.Permute(taboo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntraffic heatmap, naive mapping (dark = heavy):")
	if err := stats.Heatmap(os.Stdout, traffic.Counts, 32); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntraffic heatmap, taboo mapping (hot pairs drawn to the middle):")
	if err := stats.Heatmap(os.Stdout, mappedTraffic.Counts, 32); err != nil {
		log.Fatal(err)
	}
}
