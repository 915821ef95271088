package exp

import (
	"fmt"
	"strings"
	"testing"

	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
)

// repriceReference is the composition EvaluateDesignLoss replaced:
// reprice the design and the base network with WithLossModel, then
// Evaluate each, the design on the (optionally mapped) traffic and the
// base network on the naive traffic.
func repriceReference(t *testing.T, c *Context, kind, bench string, mapped bool, model power.LossModel) (power.Breakdown, float64) {
	t.Helper()
	net, err := c.DesignNetwork(bg, kind)
	if err != nil {
		t.Fatal(err)
	}
	if net, err = net.WithLossModel(model); err != nil {
		t.Fatal(err)
	}
	base, err := c.Base().WithLossModel(model)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := c.Shape(bg, bench)
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := base.Evaluate(naive, c.Opt.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	m := naive
	if mapped {
		if m, err = c.Mapped(bg, bench); err != nil {
			t.Fatal(err)
		}
	}
	b, err := net.Evaluate(m, c.Opt.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	return b, baseB.TotalWatts()
}

// TestEvaluateDesignLossMatchesReprice is the bit-identity oracle of
// the serve path: for every design kind, benchmark, mapping and loss
// model, EvaluateDesignLoss (cold memo, then warm) must equal the
// reprice-then-evaluate composition with == on every Breakdown field
// and on the base watts.
func TestEvaluateDesignLossMatchesReprice(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	cases := 0
	for _, kind := range DesignKinds() {
		for _, b := range c.Benchmarks() {
			for _, mapped := range []bool{false, true} {
				for _, model := range []power.LossModel{power.LossAverage, power.LossWorst} {
					for pass := 0; pass < 2; pass++ {
						got, gotBase, err := c.EvaluateDesignLoss(bg, kind, b.Name, mapped, model)
						if err != nil {
							t.Fatal(err)
						}
						want, wantBase := repriceReference(t, c, kind, b.Name, mapped, model)
						if got != want || gotBase != wantBase {
							t.Errorf("%s/%s mapped=%v %s pass %d: got %+v, base %v; want %+v, base %v",
								kind, b.Name, mapped, model, pass, got, gotBase, want, wantBase)
						}
					}
					cases++
				}
			}
		}
	}
	if want := len(DesignKinds()) * len(c.Benchmarks()) * 2 * 2; cases != want {
		t.Fatalf("covered %d cases, want %d", cases, want)
	}
	if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", false, "median"); err == nil {
		t.Error("unknown loss model accepted")
	}
}

// TestEvaluateDesignLossWarmAllocs pins the allocations of a warm
// /v1/evaluate loss_model=worst request's exp calls, EvaluateDesignLoss
// plus Performance. Every accessor hits the memo by a comparable key
// and both networks price from their worst-case pricing plans, so the count
// is zero; a regression (a hashed memo key, a per-call repricing)
// shows up here before it shows up in perfbench.
func TestEvaluateDesignLossWarmAllocs(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", true, power.LossWorst); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Performance(bg, "fft"); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(50, call); allocs != 0 {
		t.Errorf("warm EvaluateDesignLoss(worst)+Performance allocates %.1f times per call, want 0", allocs)
	}
}

// TestArtifactKeysUnchanged pins the store key of every stored memo
// family at the test options: the in-process memo is keyed by
// (kind, name), and the SHA-256 artifact key derived from it on the
// store path must stay what earlier releases wrote, or every existing
// -cache-dir goes cold.
func TestArtifactKeysUnchanged(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  memoKey
		want artifact.Key
	}{
		{memoKey{artifact.KindMatrix, "fft"}, "44f955e37c254c7a091e635881e94f77226b5f5b47697641471bbf33d117029c"},
		{memoKey{artifact.KindAssignment, "fft"}, "e477f902b87e307714de0afb3fd839e33f121ded48887da786c42ada4cc48b2f"},
		{memoKey{artifact.KindNetwork, "4M_G_S12"}, "91a5b65affd7b491116d920ef88b9ba4676fbeb176352c3ad72df5f52f39e301"},
		{memoKey{artifact.KindPerf, "fft"}, "00ba60237f1ece1fc730745bc035e1c7c5b3f46ea9b47208adcce3b5513698f2"},
	} {
		if got := c.artifactKey(tc.key); got != tc.want {
			t.Errorf("artifactKey(%+v) = %s, want %s", tc.key, got, tc.want)
		}
	}
}

// TestEvaluateDesignLossCountsDesignOnly checks the telemetry a warm
// request leaves: an average-loss call adds exactly one
// power.evaluations (the design's; the base network's watts come from
// the memo), and a worst-case call adds none, as the repriced view it
// replaced carried no metric sink.
func TestEvaluateDesignLossCountsDesignOnly(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg, nil)
	evals := reg.Counter("power.evaluations")
	for _, tc := range []struct {
		model power.LossModel
		want  uint64
	}{{power.LossAverage, 1}, {power.LossWorst, 0}} {
		if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", true, tc.model); err != nil {
			t.Fatal(err)
		}
		before := evals.Value()
		if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", true, tc.model); err != nil {
			t.Fatal(err)
		}
		if got := evals.Value() - before; got != tc.want {
			t.Errorf("warm %s call added %d power.evaluations, want %d", tc.model, got, tc.want)
		}
	}
}

// TestBuildDesignSmallRadices drives every kind through BuildDesign at
// radices 2 to 9. Each case either returns the error that names its
// radix and mode count, or a design whose topology validates and whose
// every mode reaches at least one destination of every source; none
// may panic. A 2-node comm2 design used to panic, 4-node dist4/comm4
// designs failed with a bare "non-positive group size 0", and a 4-node
// cluster2 design had a high mode that reached nobody.
func TestBuildDesignSmallRadices(t *testing.T) {
	wantErr := func(kind string, n int) string {
		switch {
		case kind == DesignDist2 && n < 3:
			return fmt.Sprintf("a 2-mode distance-based design needs at least 3 nodes, got %d", n)
		case kind == DesignComm2 && n < 3:
			return fmt.Sprintf("a 2-mode communication-aware design needs at least 3 nodes, got %d", n)
		case kind == DesignDist4 && n < 5:
			return fmt.Sprintf("a 4-mode distance-based design needs at least 5 nodes, got %d", n)
		case kind == DesignComm4 && n < 5:
			return fmt.Sprintf("a 4-mode communication-aware design needs at least 5 nodes, got %d", n)
		case kind == DesignCluster2 && n <= 4:
			return fmt.Sprintf("%d nodes fit in one cluster of 4", n)
		case kind == DesignCluster2 && n%4 != 0:
			return fmt.Sprintf("cluster size 4 does not divide %d nodes", n)
		}
		return ""
	}
	for n := 2; n <= 9; n++ {
		traffic := trace.NewMatrix(n)
		for s := range n {
			for d := range n {
				if s != d {
					traffic.Counts[s][d] = float64(1 + (5*s+d)%7)
				}
			}
		}
		for _, kind := range DesignKinds() {
			net, err := BuildDesign(power.DefaultConfig(n), kind, traffic)
			if want := wantErr(kind, n); want != "" {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("n=%d %s: error %v, want %q", n, kind, err, want)
				}
				continue
			}
			if err != nil {
				t.Errorf("n=%d %s: %v", n, kind, err)
				continue
			}
			if err := net.Topology.Validate(); err != nil {
				t.Errorf("n=%d %s: topology invalid: %v", n, kind, err)
			}
			for s := range n {
				for mode, size := range net.Topology.ModeSizes(s) {
					if size == 0 {
						t.Errorf("n=%d %s: source %d's mode %d reaches nobody", n, kind, s, mode)
					}
				}
			}
		}
	}
}
