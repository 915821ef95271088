package dynamic

import (
	"testing"

	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

func testNetwork(t *testing.T, n int) *power.MNoC {
	t.Helper()
	cfg := power.DefaultConfig(n)
	tp, err := topo.DistanceBased(n, []int{n / 2, n - 1 - n/2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := power.NewMNoC(cfg, tp, power.UniformWeighting(2))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func phasedTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	// Phase volumes are in the paper's utilisation regime (a few flits
	// per cycle machine-wide) so migration energy is worth paying.
	// Each phase spans several controller epochs — migrations only pay
	// off when the pattern they were derived from persists for a few
	// benefit-horizon epochs, exactly the paper's "if the workload runs
	// long enough to warrant migration" caveat.
	tr, err := workload.PhasedTrace(n, []workload.Phase{
		{Bench: "ocean_c", Cycles: 12_000_000, Flits: 400_000},
		{Bench: "fft", Cycles: 12_000_000, Flits: 400_000},
		{Bench: "barnes", Cycles: 12_000_000, Flits: 400_000},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Burst the packets up to cache-line transfers so the interconnect
	// runs in the paper's utilisation regime, where migration energy is
	// worth paying.
	for i := range tr.Packets {
		tr.Packets[i].Flits *= 16
	}
	return tr
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultPolicy()
	p.EpochCycles = 0
	if err := p.Validate(); err == nil {
		t.Error("zero epoch accepted")
	}
	p = DefaultPolicy()
	p.MinGainFrac = -1
	if err := p.Validate(); err == nil {
		t.Error("negative gain threshold accepted")
	}
	p = DefaultPolicy()
	p.StandbyUWPerReceiver = -1
	if err := p.Validate(); err == nil {
		t.Error("negative standby power accepted")
	}
}

func TestRunBasics(t *testing.T) {
	n := 32
	net := testNetwork(t, n)
	tr := phasedTrace(t, n)
	res, err := Run(net, tr, mapping.Identity(n), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 18 {
		t.Fatalf("%d epochs, want 18", len(res.Epochs))
	}
	if err := res.FinalMapping.Validate(n); err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.AdaptiveW <= 0 || e.StaticW <= 0 {
			t.Fatalf("epoch %d has non-positive power: %+v", e.Epoch, e)
		}
		if e.ActiveWaveguideFrac <= 0 || e.ActiveWaveguideFrac > 1 {
			t.Fatalf("epoch %d gating fraction %v", e.Epoch, e.ActiveWaveguideFrac)
		}
	}
}

// TestControllerBeatsStaticOnPhasedWorkload is the headline property:
// when the communication pattern shifts between phases, online
// migration plus gating must end up below the static-mapping reference.
func TestControllerBeatsStaticOnPhasedWorkload(t *testing.T) {
	n := 32
	net := testNetwork(t, n)
	tr := phasedTrace(t, n)
	res, err := Run(net, tr, mapping.Identity(n), DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAdaptiveW >= res.TotalStaticW {
		t.Errorf("adaptive %v W not below static %v W", res.TotalAdaptiveW, res.TotalStaticW)
	}
	// Some migrations must actually have happened.
	moves := 0
	for _, e := range res.Epochs {
		moves += e.Migrations
	}
	if moves == 0 {
		t.Error("controller never migrated a thread")
	}
}

func TestGatingSavesStandbyPowerOnIdleSources(t *testing.T) {
	n := 16
	net := testNetwork(t, n)
	// Traffic concentrated on one source: the rest idle at one active
	// waveguide instead of the full bundle.
	tr := &trace.Trace{N: n, Cycles: 100_000}
	for i := 0; i < 2000; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: uint64(i * 50), Src: 3, Dst: int32(1 + i%2), Flits: 1,
		})
	}
	tr.Packets[0].Dst = 2 // avoid accidental self-send patterns
	pol := DefaultPolicy()
	pol.MaxMigrationsPerEpoch = 0 // isolate the gating effect
	res, err := Run(net, tr, mapping.Identity(n), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAdaptiveW >= res.TotalStaticW {
		t.Errorf("gating saved nothing: %v vs %v", res.TotalAdaptiveW, res.TotalStaticW)
	}
	if f := res.Epochs[0].ActiveWaveguideFrac; f >= 1 {
		t.Errorf("no waveguides gated: fraction %v", f)
	}
}

func TestMigrationThresholdPreventsThrashing(t *testing.T) {
	n := 16
	net := testNetwork(t, n)
	tr := phasedTrace(t, n)
	pol := DefaultPolicy()
	pol.MinGainFrac = 10 // impossible threshold: no migration may commit
	res, err := Run(net, tr, mapping.Identity(n), pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Migrations != 0 {
			t.Fatalf("epoch %d migrated despite threshold", e.Epoch)
		}
	}
	for i, c := range res.FinalMapping {
		if c != i {
			t.Fatal("mapping changed despite threshold")
		}
	}
}

func TestRunRejections(t *testing.T) {
	n := 16
	net := testNetwork(t, n)
	tr := phasedTrace(t, n)
	if _, err := Run(net, tr, mapping.Identity(8), DefaultPolicy()); err == nil {
		t.Error("short mapping accepted")
	}
	bad := DefaultPolicy()
	bad.EpochCycles = 0
	if _, err := Run(net, tr, mapping.Identity(n), bad); err == nil {
		t.Error("bad policy accepted")
	}
	other := &trace.Trace{N: 8, Cycles: 10}
	if _, err := Run(net, other, mapping.Identity(8), DefaultPolicy()); err == nil {
		t.Error("trace/network mismatch accepted")
	}
}

func TestPhasedTraceHelper(t *testing.T) {
	tr, err := workload.PhasedTrace(16, []workload.Phase{
		{Bench: "fft", Cycles: 1000, Flits: 100},
		{Bench: "barnes", Cycles: 2000, Flits: 200},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles != 3000 || len(tr.Packets) != 300 {
		t.Fatalf("phased trace wrong shape: %d cycles, %d packets", tr.Cycles, len(tr.Packets))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Second phase's packets must be offset past the first phase.
	late := 0
	for _, p := range tr.Packets {
		if p.Cycle >= 1000 {
			late++
		}
	}
	if late != 200 {
		t.Errorf("%d packets in the second phase, want 200", late)
	}
	if _, err := workload.PhasedTrace(16, nil, 1); err == nil {
		t.Error("empty phase list accepted")
	}
	if _, err := workload.PhasedTrace(16, []workload.Phase{{Bench: "nope", Cycles: 10, Flits: 1}}, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// BenchmarkDynamicMigrationScan measures one controller migration step
// at radix 64: the mode-power cost matrix plus up to four greedy
// best-swap scans over an observed fft epoch.
func BenchmarkDynamicMigrationScan(b *testing.B) {
	const n = 64
	cfg := power.DefaultConfig(n)
	tp, err := topo.DistanceBased(n, []int{n / 2, n - 1 - n/2})
	if err != nil {
		b.Fatal(err)
	}
	net, err := power.NewMNoC(cfg, tp, power.UniformWeighting(2))
	if err != nil {
		b.Fatal(err)
	}
	bench, err := workload.ByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bench.Matrix(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol := DefaultPolicy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := improveMapping(net, m, mapping.Identity(n), pol, float64(pol.EpochCycles)); err != nil {
			b.Fatal(err)
		}
	}
}
