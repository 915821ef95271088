package dynamic

import (
	"bytes"
	"testing"

	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/stats"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/variation"
	"mnoc/internal/workload"
)

func recoveryNet(t *testing.T, n int) *power.MNoC {
	t.Helper()
	tp, err := topo.DistanceBased(n, []int{n / 2, n - 1 - n/2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := power.NewMNoC(power.DefaultConfig(n), tp, power.UniformWeighting(tp.Modes))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func recoveryTrace(t *testing.T, n int, cycles uint64, flits int) *trace.Trace {
	t.Helper()
	b, err := workload.Resolve("syn_uniform")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(n, cycles, flits, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGracefulDegradation is the PR's acceptance scenario: under a
// fixed-seed fault environment swept over intensity, the fault-
// oblivious baseline loses packets while the recovery ladder keeps
// delivery >= 99% up to twice the default accelerated-test fault rates,
// at a quantified power cost.
func TestGracefulDegradation(t *testing.T) {
	const n, cycles, flits = 16, 300_000, 10_000
	net := recoveryNet(t, n)
	tr := recoveryTrace(t, n, cycles, flits)
	initial := mapping.Identity(n)

	for _, scale := range []float64{0.5, 1, 2} {
		sched, err := fault.DefaultInjectorConfig(1).Scale(scale).Generate(n, cycles)
		if err != nil {
			t.Fatal(err)
		}
		base, err := RunWithFaults(net, tr, initial, sched, ObliviousPolicy())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RunWithFaults(net, tr, initial, sched, DefaultRecoveryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if base.DeliveredFrac() >= 0.99 {
			t.Errorf("scale %g: oblivious baseline delivered %.4f — fault environment too mild to test recovery",
				scale, base.DeliveredFrac())
		}
		if rec.DeliveredFrac() < 0.99 {
			t.Errorf("scale %g: recovery delivered %.4f, want >= 0.99", scale, rec.DeliveredFrac())
		}
		if rec.DeliveredFrac() <= base.DeliveredFrac() {
			t.Errorf("scale %g: recovery (%.4f) not better than baseline (%.4f)",
				scale, rec.DeliveredFrac(), base.DeliveredFrac())
		}
		if rec.Retries == 0 {
			t.Errorf("scale %g: recovery never retried", scale)
		}
		// Recovery is not free: the retries and uplifts must show up as
		// a power overhead over the same schedule's baseline.
		if rec.AvgPowerW <= base.AvgPowerW {
			t.Errorf("scale %g: recovery power %.6f W not above baseline %.6f W",
				scale, rec.AvgPowerW, base.AvgPowerW)
		}
		if base.Offered != rec.Offered || base.Offered == 0 {
			t.Errorf("scale %g: offered mismatch (%d vs %d)", scale, base.Offered, rec.Offered)
		}
	}
}

// TestFaultFreeRunIsLossless checks the zero-fault fixed point: both
// policies deliver everything at identical power.
func TestFaultFreeRunIsLossless(t *testing.T) {
	const n = 8
	net := recoveryNet(t, n)
	tr := recoveryTrace(t, n, 100_000, 2_000)
	sched, err := fault.DefaultInjectorConfig(1).Scale(0).Generate(n, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunWithFaults(net, tr, mapping.Identity(n), sched, ObliviousPolicy())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunWithFaults(net, tr, mapping.Identity(n), sched, DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*FaultResult{base, rec} {
		if r.Lost != 0 || r.Retries != 0 || r.DeliveredFrac() != 1 {
			t.Fatalf("fault-free run not lossless: %+v", r)
		}
	}
	if base.AvgPowerW != rec.AvgPowerW {
		t.Fatalf("fault-free power differs: %g vs %g", base.AvgPowerW, rec.AvgPowerW)
	}
}

// TestRecoveryDeterminism: two identical runs must render byte-
// identical output (the stats layer is canonical, so comparing the
// rendered curve covers counters, power and runtime).
func TestRecoveryDeterminism(t *testing.T) {
	const n, cycles = 16, 200_000
	net := recoveryNet(t, n)
	tr := recoveryTrace(t, n, cycles, 5_000)

	render := func() []byte {
		curve := &stats.ReliabilityCurve{}
		for _, scale := range []float64{1, 3} {
			sched, err := fault.DefaultInjectorConfig(7).Scale(scale).Generate(n, cycles)
			if err != nil {
				t.Fatal(err)
			}
			base, err := RunWithFaults(net, tr, mapping.Identity(n), sched, ObliviousPolicy())
			if err != nil {
				t.Fatal(err)
			}
			rec, err := RunWithFaults(net, tr, mapping.Identity(n), sched, DefaultRecoveryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			for res, pts := range map[*FaultResult]*[]stats.ReliabilityPoint{
				base: &curve.Baseline, rec: &curve.Recovery,
			} {
				*pts = append(*pts, stats.ReliabilityPoint{
					Scale: scale, Offered: res.Offered, Delivered: res.Delivered,
					Retries: res.Retries, PowerW: res.AvgPowerW,
				})
			}
			// Action logs must replay identically too.
			var acts bytes.Buffer
			for _, a := range rec.Actions {
				acts.WriteString(a.What)
			}
		}
		var buf bytes.Buffer
		if err := curve.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("identical configurations rendered different stats output")
	}
}

// TestMigrationAndReplan forces a receiver death early in the run and
// checks the epoch actions fire: the hot thread moves off the dead
// core, the topology re-solve excludes it, and packets to that thread
// are delivered again afterwards. The workload is a hotspot on the
// dying core — the case migration exists for: a permutation mapping
// must leave *some* thread on the dead core, so the controller's job is
// to make it the coldest one.
func TestMigrationAndReplan(t *testing.T) {
	const n = 8
	const cycles = 200_000
	net := recoveryNet(t, n)
	// Every 20 cycles a rotating sender targets thread 2.
	tr := &trace.Trace{N: n, Cycles: cycles}
	for c := uint64(0); c < cycles; c += 20 {
		src := int(c/20) % n
		if src == 2 {
			src = 3
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: c, Src: int32(src), Dst: 2, Flits: 1,
		})
	}
	sched := &fault.Schedule{N: n, Cycles: cycles, Faults: []fault.Fault{
		{Cycle: 10_000, Kind: fault.ReceiverDeath, Node: 2, Aux: -1},
	}}
	rec, err := RunWithFaults(net, tr, mapping.Identity(n), sched, DefaultRecoveryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Migrations == 0 {
		t.Errorf("no migration off the dead receiver: %+v", rec)
	}
	if rec.Replans == 0 {
		t.Errorf("no topology re-solve after receiver death: %+v", rec)
	}
	if len(rec.Actions) == 0 {
		t.Error("recovery actions were not logged")
	}
	base, err := RunWithFaults(net, tr, mapping.Identity(n), sched, ObliviousPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline loses every post-death packet to the hotspot; recovery
	// only loses the window before the first migration epoch closes.
	if rec.Lost*4 >= base.Lost {
		t.Errorf("migration did not reduce losses: recovery lost %d, baseline %d", rec.Lost, base.Lost)
	}
	// The re-solve shrinks injected power: after excluding a receiver,
	// the re-solved design's mode powers must not exceed the original.
	resolved, err := net.Resolve([]bool{true, true, false, true, true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < n; src++ {
		if src == 2 {
			continue
		}
		for m, p := range resolved.Designs[src].ModePowerUW {
			if p > net.Designs[src].ModePowerUW[m]+1e-9 {
				t.Errorf("re-solved source %d mode %d power rose: %g > %g",
					src, m, p, net.Designs[src].ModePowerUW[m])
			}
		}
	}
}

// TestVariationGuardDB wires the fabrication-variation study into guard
// sizing: zero sigma needs no guard, real sigma yields a positive one
// usable as InitialGuardDB.
func TestVariationGuardDB(t *testing.T) {
	net := recoveryNet(t, 8)
	zero, err := VariationGuardDB(net, variation.Params{SigmaFrac: 0, Trials: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Fatalf("zero-sigma guard = %g, want 0", zero)
	}
	g, err := VariationGuardDB(net, variation.Params{SigmaFrac: 0.05, Trials: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g <= 0 || g > 10 {
		t.Fatalf("5%%-sigma guard = %g dB, want a small positive band", g)
	}
	pol := DefaultRecoveryPolicy()
	pol.InitialGuardDB = g
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
}
