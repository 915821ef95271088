package noc

import (
	"runtime/debug"
	"testing"

	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

func TestMNoCUncontendedLatency(t *testing.T) {
	m, err := NewMNoC(256)
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end: 1 flit serialisation + 1 E/O+O/E + 9 propagation
	// + 1 ejection = injection + 11.
	arr, err := m.Send(100, 0, 255, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := arr - 100; got != 11 {
		t.Errorf("end-to-end latency = %d, want 11", got)
	}
	m.Reset()
	// Adjacent nodes: E/O+O/E (1) + propagation (1) + ejection (1) = 3.
	arr, err = m.Send(0, 10, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if arr != 3 {
		t.Errorf("adjacent latency = %d, want 3", arr)
	}
}

func TestMNoCSourceSerialization(t *testing.T) {
	m, err := NewMNoC(64)
	if err != nil {
		t.Fatal(err)
	}
	// Two packets from the same source at the same cycle: the second
	// must wait for the first's flits to leave the waveguide.
	a1, _ := m.Send(0, 5, 10, 4)
	a2, _ := m.Send(0, 5, 20, 4)
	if a2 <= a1 {
		t.Errorf("no serialisation: %d <= %d", a2, a1)
	}
	// Different sources do not contend at injection.
	m.Reset()
	b1, _ := m.Send(0, 5, 10, 4)
	b2, _ := m.Send(0, 6, 20, 4)
	if b2 > b1+2 { // different path lengths only
		t.Errorf("cross-source contention at injection: %d vs %d", b2, b1)
	}
}

func TestMNoCDestinationContention(t *testing.T) {
	m, err := NewMNoC(64)
	if err != nil {
		t.Fatal(err)
	}
	// Many sources hitting one destination saturate its ejection
	// channels: with 31 senders of 4-flit packets, arrivals must spread
	// well beyond the uncontended latency of any single packet.
	uncontended := uint64(0)
	var last uint64
	for s := 0; s < 32; s++ {
		if s == 30 {
			continue
		}
		arr, err := m.Send(0, s, 30, 4)
		if err != nil {
			t.Fatal(err)
		}
		if uncontended == 0 {
			uncontended = arr
		}
		if arr > last {
			last = arr
		}
	}
	// 31 packets × 4 flits over mnocEjectChannels parallel buffers need
	// at least ceil(31/4)·4 = 32 ejection cycles for the last packet.
	if last < 32 {
		t.Errorf("last arrival %d too early for channel-limited ejection", last)
	}
	if last <= uncontended {
		t.Errorf("no contention visible: last %d vs first %d", last, uncontended)
	}
}

func TestClusteredIntraVsInterLatency(t *testing.T) {
	r, err := NewRNoC(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	intra, err := r.Send(0, 0, 1, 1) // same cluster
	if err != nil {
		t.Fatal(err)
	}
	r.Reset()
	inter, err := r.Send(0, 0, 255, 1) // cross-chip
	if err != nil {
		t.Fatal(err)
	}
	if intra >= inter {
		t.Errorf("intra %d not faster than inter %d", intra, inter)
	}
	// Intra: link(1) + router(4) + link(1) + eject(1) = 7.
	if intra != 7 {
		t.Errorf("intra-cluster latency = %d, want 7", intra)
	}
	// Inter adds the second router, E/O+O/E and 1-5 optical cycles.
	if inter < intra+RouterPipelineCycles+EOOECycles+1 {
		t.Errorf("inter-cluster latency %d implausibly low", inter)
	}
}

func TestClusteredOpticalLatencyRange(t *testing.T) {
	// Table 2: rNoC optical link latency 1-5 cycles.
	r, err := NewRNoC(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.opt.LatencyCycles(0, 63); got < 4 || got > 5 {
		t.Errorf("worst-case optical latency = %d, want 4-5", got)
	}
	if got := r.opt.LatencyCycles(0, 1); got != 1 {
		t.Errorf("best-case optical latency = %d, want 1", got)
	}
}

func TestMNoCFasterThanRNoCOnAverage(t *testing.T) {
	// The structural claim behind the paper's 10% performance edge:
	// no intermediate routers makes the flat crossbar's packet latency
	// lower than the clustered design's for cross-cluster traffic.
	m, err := NewMNoC(256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRNoC(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bench.Trace(256, 100000, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Replay(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ms.AvgLatency >= rs.AvgLatency {
		t.Errorf("mNoC avg latency %.2f not below rNoC %.2f", ms.AvgLatency, rs.AvgLatency)
	}
}

func TestReplayStats(t *testing.T) {
	m, err := NewMNoC(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{N: 16, Cycles: 1000, Packets: []trace.Packet{
		{Cycle: 0, Src: 0, Dst: 1, Flits: 1},
		{Cycle: 5, Src: 2, Dst: 3, Flits: 2},
	}}
	st, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 2 || st.TotalFlits != 3 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.AvgLatency <= 0 || st.MaxLatency == 0 || st.FinishCycle == 0 {
		t.Errorf("latency stats empty: %+v", st)
	}
	if _, err := Replay(m, &trace.Trace{N: 8, Cycles: 10}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestReplayResetsState(t *testing.T) {
	m, err := NewMNoC(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{N: 16, Cycles: 1000, Packets: []trace.Packet{
		{Cycle: 0, Src: 0, Dst: 1, Flits: 8},
	}}
	a, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency {
		t.Errorf("replay not idempotent: %v vs %v", a.AvgLatency, b.AvgLatency)
	}
}

func TestSendRejections(t *testing.T) {
	m, err := NewMNoC(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(0, 0, 0, 1); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := m.Send(0, -1, 5, 1); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := m.Send(0, 0, 16, 1); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := m.Send(0, 0, 1, 0); err == nil {
		t.Error("zero flits accepted")
	}
	if _, err := NewRNoC(10, 4); err == nil {
		t.Error("bad cluster size accepted")
	}
	if _, err := NewCMNoC(4, 4); err == nil {
		t.Error("single-port clustered accepted")
	}
}

func TestNames(t *testing.T) {
	m, _ := NewMNoC(256)
	r, _ := NewRNoC(256, 4)
	c, _ := NewCMNoC(256, 4)
	for _, n := range []Network{m, r, c} {
		if n.Name() == "" || n.N() != 256 {
			t.Errorf("bad identity for %T: %q %d", n, n.Name(), n.N())
		}
	}
	if r.Name() == c.Name() {
		t.Error("rNoC and c_mNoC share a name")
	}
}

func TestMWSRTiming(t *testing.T) {
	m, err := NewMWSR(64)
	if err != nil {
		t.Fatal(err)
	}
	// Uncontended: arbitration + E/O+O/E + propagation + serialisation.
	arr, err := m.Send(0, 10, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if arr != MWSRArbitrationCycles+EOOECycles+1+1 {
		t.Errorf("uncontended latency = %d", arr)
	}
	// Two sources to the same destination serialise on its waveguide.
	m.Reset()
	a1, _ := m.Send(0, 10, 30, 4)
	a2, _ := m.Send(0, 50, 30, 4)
	if a2 <= a1 && a1 <= a2 { // at least one must wait for the other
		t.Errorf("no serialisation on destination guide: %d, %d", a1, a2)
	}
	if a2-a1 == 0 {
		t.Error("identical arrivals despite shared destination")
	}
	// Different destinations never contend.
	m.Reset()
	b1, _ := m.Send(0, 10, 30, 4)
	m.Reset()
	b2, _ := m.Send(0, 10, 30, 4)
	if b1 != b2 {
		t.Error("Reset did not clear state")
	}
}

func TestMWSRHigherLatencyThanSWMR(t *testing.T) {
	// The SWMR/MWSR tradeoff: MWSR saves power (see power tests) but
	// pays arbitration latency on every packet.
	sw, err := NewMNoC(64)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := NewMWSR(64)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := sw.Send(0, 5, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := mw.Send(0, 5, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a2 <= a1 {
		t.Errorf("MWSR latency %d not above SWMR %d", a2, a1)
	}
}

func TestBundledSourceHasMoreInjectionBandwidth(t *testing.T) {
	single, err := NewMNoC(64)
	if err != nil {
		t.Fatal(err)
	}
	bundled, err := NewMNoCBundled(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four back-to-back packets from one source: the single-guide
	// source serialises them; the 4-guide bundle overlaps them.
	last := func(m *MNoC) uint64 {
		var worst uint64
		for i := 0; i < 4; i++ {
			arr, err := m.Send(0, 5, 40+i, 8)
			if err != nil {
				t.Fatal(err)
			}
			if arr > worst {
				worst = arr
			}
		}
		return worst
	}
	s := last(single)
	b := last(bundled)
	if b >= s {
		t.Errorf("bundled last arrival %d not before single-guide %d", b, s)
	}
	if _, err := NewMNoCBundled(64, 0); err == nil {
		t.Error("zero guides accepted")
	}
}

func TestReplayPercentiles(t *testing.T) {
	m, err := NewMNoC(64)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{N: 64, Cycles: 100000}
	// 99 near packets and one far one: P50 small, max large.
	for i := 0; i < 99; i++ {
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: uint64(i * 100), Src: 10, Dst: 11, Flits: 1,
		})
	}
	tr.Packets = append(tr.Packets, trace.Packet{Cycle: 99000, Src: 0, Dst: 63, Flits: 1})
	st, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.P50Latency == 0 || st.P99Latency < st.P50Latency || st.MaxLatency < st.P99Latency {
		t.Errorf("percentiles inconsistent: p50=%d p99=%d max=%d",
			st.P50Latency, st.P99Latency, st.MaxLatency)
	}
	if st.MaxLatency <= st.P50Latency {
		t.Errorf("far packet not visible in max: %d vs %d", st.MaxLatency, st.P50Latency)
	}
}

func TestReplayObservedRecordsMetrics(t *testing.T) {
	m, err := NewMNoC(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{N: 16, Cycles: 1000, Packets: []trace.Packet{
		{Cycle: 0, Src: 0, Dst: 1, Flits: 1},
		{Cycle: 5, Src: 2, Dst: 3, Flits: 2},
	}}
	reg := telemetry.NewRegistry()
	st, err := ReplayObserved(m, tr, reg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Replay(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st != plain {
		t.Fatalf("observed replay diverges: %+v vs %+v", st, plain)
	}
	if got := reg.Counter("noc.replay.packets").Value(); got != 2 {
		t.Errorf("noc.replay.packets = %d, want 2", got)
	}
	if got := reg.Counter("noc.replay.flits").Value(); got != 3 {
		t.Errorf("noc.replay.flits = %d, want 3", got)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["noc.replay.latency_cycles"]; h.Count != 2 || h.Sum <= 0 {
		t.Errorf("latency histogram = %+v", h)
	}
}

// TestReplayAllocationBound pins Replay's allocations per call on the
// BenchmarkNoCReplay input: the latency scratch comes from a sync.Pool,
// so a replay costs a constant handful of allocations however many
// packets it carries. GC may empty the pool between calls, so the pin
// is an upper bound rather than an exact count.
func TestReplayAllocationBound(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	bench, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		n   int
		max float64
	}{{16, 1}, {256, 2}} {
		tr, err := bench.Trace(c.n, 100000, 20000, 1)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewMNoC(c.n)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Replay(net, tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("n=%d: Replay allocates %.0f times per call, want ≤ %.0f", c.n, allocs, c.max)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
// The race detector drops one sync.Pool Put in four at random, so a
// pooled path's allocation count is exact only without it.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
