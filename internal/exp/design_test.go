package exp

import (
	"fmt"
	"strings"
	"sync"
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
// /v1/solve request's exp call (EvaluateDesignLoss under the average
// model) and of a warm /v1/evaluate loss_model=worst request's
// (EvaluateDesignLoss plus Performance). Every accessor, the price
// included, hits the memo by a comparable key, so the count is zero; a
// regression (a hashed or concatenated memo key, a per-call repricing)
// shows up here before it shows up in perfbench.
func TestEvaluateDesignLossWarmAllocs(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []power.LossModel{power.LossAverage, power.LossWorst} {
		call := func() {
			if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", true, model); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Performance(bg, "fft"); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if allocs := testing.AllocsPerRun(50, call); allocs != 0 {
			t.Errorf("warm EvaluateDesignLoss(%s)+Performance allocates %.1f times per call, want 0", model, allocs)
		}
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
		{memoKey{kind: artifact.KindMatrix, name: "fft"}, "44f955e37c254c7a091e635881e94f77226b5f5b47697641471bbf33d117029c"},
		{memoKey{kind: artifact.KindAssignment, name: "fft"}, "e477f902b87e307714de0afb3fd839e33f121ded48887da786c42ada4cc48b2f"},
		{memoKey{kind: artifact.KindNetwork, name: "4M_G_S12"}, "91a5b65affd7b491116d920ef88b9ba4676fbeb176352c3ad72df5f52f39e301"},
		{memoKey{kind: artifact.KindPerf, name: "fft"}, "00ba60237f1ece1fc730745bc035e1c7c5b3f46ea9b47208adcce3b5513698f2"},
	} {
		if got := c.artifactKey(tc.key); got != tc.want {
			t.Errorf("artifactKey(%+v) = %s, want %s", tc.key, got, tc.want)
		}
	}
}

// TestEvaluateDesignLossCountsDesignOnly checks the telemetry a
// request leaves once the base network's watts are memoised: a cold
// average-loss call adds exactly one power.evaluations (the design's),
// a cold worst-case call adds none (a worst-case evaluation reports to
// no metric sink), and a warm call of either model is a memo lookup
// that adds none.
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
		cold  uint64
	}{{power.LossAverage, 1}, {power.LossWorst, 0}} {
		// Warm what the price reads: the design (whose S12 sample
		// calibrates every benchmark's shape on the base network) and
		// the base watts.
		if _, err := c.DesignNetwork(bg, DesignComm4); err != nil {
			t.Fatal(err)
		}
		if _, err := c.baseWatts(bg, "fft", tc.model); err != nil {
			t.Fatal(err)
		}
		for _, pass := range []struct {
			name string
			want uint64
		}{{"cold", tc.cold}, {"warm", 0}} {
			before := evals.Value()
			if _, _, err := c.EvaluateDesignLoss(bg, DesignComm4, "fft", true, tc.model); err != nil {
				t.Fatal(err)
			}
			if got := evals.Value() - before; got != pass.want {
				t.Errorf("%s %s call added %d power.evaluations, want %d", pass.name, tc.model, got, pass.want)
			}
		}
	}
}

// TestEvaluateDesignLossConcurrentColdPricesOnce cold-calls every
// (kind, bench, mapped, model) from 8 goroutines on a fresh context.
// The goroutines start at keys that differ from the first one's in
// exactly one field (model, mapping, benchmark or kind), so a flight
// key that drops a field coalesces two different misses: the follower
// then gets the leader's price, and its own key is never memoised.
// Every result must equal the reprice oracle, every key must be
// memoised, and each average-model key must have been priced exactly
// once (worst-case evaluations report to no counter).
func TestEvaluateDesignLossConcurrentColdPricesOnce(t *testing.T) {
	c, err := NewContext(small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Instrument(reg, nil)
	type tuple struct {
		kind, bench string
		mapped      bool
		model       power.LossModel
	}
	var keys []tuple
	for _, kind := range DesignKinds() {
		for _, b := range c.Benchmarks() {
			for _, mapped := range []bool{false, true} {
				for _, model := range []power.LossModel{power.LossAverage, power.LossWorst} {
					keys = append(keys, tuple{kind, b.Name, mapped, model})
				}
			}
		}
	}
	// Index strides of one model, mapping, benchmark and kind step.
	benchStep, kindStep := 4, 4*len(c.Benchmarks())
	starts := []int{0, 1, 2, benchStep, kindStep, kindStep + 1, kindStep + 2, kindStep + benchStep}
	got := make([][]designPrice, len(starts))
	var wg sync.WaitGroup
	for g, start := range starts {
		got[g] = make([]designPrice, len(keys))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (start + i) % len(keys)
				tu := keys[k]
				b, baseW, err := c.EvaluateDesignLoss(bg, tu.kind, tu.bench, tu.mapped, tu.model)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][k] = designPrice{b, baseW}
			}
		}()
	}
	wg.Wait()
	// Each average key prices its design once; each benchmark's shape
	// calibration and its average base watts evaluate the base network
	// once each.
	if got, want := reg.Counter("power.evaluations").Value(), uint64(len(keys)/2+2*len(c.Benchmarks())); got != want {
		t.Errorf("power.evaluations = %d after the cold calls, want %d (one per average key, two per benchmark)", got, want)
	}
	memoised := 0
	c.mu.Lock()
	for k := range c.memo {
		if k.design != "" {
			memoised++
		}
	}
	c.mu.Unlock()
	if memoised != len(keys) {
		t.Errorf("%d prices memoised, want %d", memoised, len(keys))
	}
	for k, tu := range keys {
		want, wantBase := repriceReference(t, c, tu.kind, tu.bench, tu.mapped, tu.model)
		for g := range starts {
			if p := got[g][k]; p.b != want || p.baseW != wantBase {
				t.Errorf("goroutine %d, %+v: got %+v, base %v; want %+v, base %v", g, tu, p.b, p.baseW, want, wantBase)
			}
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
