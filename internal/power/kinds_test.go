package power_test

import (
	"fmt"
	"testing"

	"mnoc/internal/exp"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// TestEvaluateLossMatchesReferenceKinds checks the pricing-plan walk
// against the per-cell reference (power.CheckEvaluateLoss: == on the
// Breakdown and on every power.mode<k>.source_uw sum) for every design
// kind at radix 64 and 256, under both loss models, on naive and
// QAP-mapped traffic, and on a Resolve'd network with dead receivers.
func TestEvaluateLossMatchesReferenceKinds(t *testing.T) {
	bench, err := workload.ByName("ocean_c")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 256} {
		cfg := power.DefaultConfig(n)
		naive, err := bench.Matrix(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := mapping.FromTraffic(naive, cfg.Splitter.Layout)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := naive.Permute(prob.CenterGreedy())
		if err != nil {
			t.Fatal(err)
		}
		nets := map[string]*power.MNoC{}
		for _, kind := range exp.DesignKinds() {
			if nets[kind], err = exp.BuildDesign(cfg, kind, naive); err != nil {
				t.Fatal(err)
			}
		}
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = i%7 != 3
		}
		if nets["dist4-resolved"], err = nets[exp.DesignDist4].Resolve(alive); err != nil {
			t.Fatal(err)
		}
		for name, net := range nets {
			for traffic, mtx := range map[string]*trace.Matrix{"naive": naive, "mapped": mapped} {
				for _, model := range []power.LossModel{power.LossAverage, power.LossWorst} {
					power.CheckEvaluateLoss(t, fmt.Sprintf("n=%d %s %s", n, name, traffic), net, mtx, 1e6, model)
				}
			}
		}
	}
}
