package main

import (
	"context"
	"slices"
	"testing"

	"mnoc/internal/core"
	"mnoc/internal/exp"
	"mnoc/internal/runner"
	"mnoc/internal/workload"
)

// The CLI's design path (designByKind) and the experiments' memoised,
// store-backed path (exp.DesignNetwork) build the same network for
// every kind when both are fitted to the same traffic: the S12 sample
// DesignNetwork designs on. Each source's mode assignment and mode
// powers, and the Evaluate breakdown, compare with ==, first on a cold
// store (solved and written) and then on a warm one (decoded).
func TestDesignPathsAgree(t *testing.T) {
	ctx := context.Background()
	opt := exp.Options{N: 16, Seed: 1, QAPIters: 50, Cycles: 1e6, SimAccesses: 20}
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		store, err := runner.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := exp.NewContextWithStore(opt, store)
		if err != nil {
			t.Fatal(err)
		}
		s12, err := c.SampledMatrix(ctx, workload.Names())
		if err != nil {
			t.Fatal(err)
		}
		traffic, err := c.Shape(ctx, "fft")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(opt.N)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range exp.DesignKinds() {
			got, err := c.DesignNetwork(ctx, kind)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := designByKind(sys, store, s12, kind, false, opt.Seed)
			if err != nil {
				t.Fatal(err)
			}
			for src := range opt.N {
				if !slices.Equal(got.Topology.ModeOf[src], want.Topology.ModeOf[src]) {
					t.Errorf("%s %s: source %d modes %v, CLI %v", pass, kind, src,
						got.Topology.ModeOf[src], want.Topology.ModeOf[src])
				}
				if !slices.Equal(got.Designs[src].ModePowerUW, want.Network.Designs[src].ModePowerUW) {
					t.Errorf("%s %s: source %d mode powers %v, CLI %v", pass, kind, src,
						got.Designs[src].ModePowerUW, want.Network.Designs[src].ModePowerUW)
				}
			}
			gb, err := got.Evaluate(traffic, opt.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := want.Network.Evaluate(traffic, opt.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if gb != wb {
				t.Errorf("%s %s: breakdown %+v, CLI %+v", pass, kind, gb, wb)
			}
		}
		if s := c.Solves(); pass == "warm" && s.Networks != 0 {
			t.Errorf("warm pass solved %d networks, want 0 (decoded from the store)", s.Networks)
		}
	}
}
