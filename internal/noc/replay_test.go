// Differential tests for ReplayObserved's batched bookkeeping: the
// locally counted histogram and counters, published once per replay,
// and the counting-select percentiles must equal the per-packet
// Observe/Inc and sort-based references they replaced.
package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
)

// scriptedNet is a Network whose latency is the packet's flit count,
// so a test chooses every packet's latency exactly (including 0, which
// no real model produces).
type scriptedNet struct{ n int }

func (s scriptedNet) N() int       { return s.n }
func (s scriptedNet) Reset()       {}
func (s scriptedNet) Name() string { return "scripted" }
func (s scriptedNet) Send(cycle uint64, _, _, flits int) (uint64, error) {
	return cycle + uint64(flits), nil
}

// scriptedTrace is a trace whose i-th packet has latency lats[i] on a
// scriptedNet.
func scriptedTrace(lats []uint64) *trace.Trace {
	tr := &trace.Trace{N: 4, Cycles: uint64(len(lats))}
	for i, l := range lats {
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: uint64(i), Src: int32(i % 4), Dst: int32((i + 1) % 4), Flits: int32(l),
		})
	}
	return tr
}

// observeReference records the trace the way ReplayObserved did before
// batching: one Observe and two counter updates per packet.
func observeReference(reg *telemetry.Registry, lats []uint64) {
	h := reg.Histogram("noc.replay.latency_cycles", ReplayLatencyBuckets[:]...)
	packets := reg.Counter("noc.replay.packets")
	flits := reg.Counter("noc.replay.flits")
	for _, l := range lats {
		h.Observe(float64(l))
		packets.Inc()
		flits.Add(l) // a scripted packet's flits are its latency
	}
}

// everyBucketLatencies reaches every noc.replay.latency_cycles bucket:
// each bound, the values either side of it, and overflow well past the
// last bound.
func everyBucketLatencies() []uint64 {
	var lats []uint64
	for _, b := range ReplayLatencyBuckets {
		lats = append(lats, uint64(b)-1, uint64(b), uint64(b)+1)
	}
	lats = append(lats, 0, 3, 1000, 4097, 5000, 1<<20, 1<<30)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		lats = append(lats, uint64(rng.Intn(6000)))
	}
	return lats
}

func TestReplayObservedMatchesPerPacketTelemetry(t *testing.T) {
	lats := everyBucketLatencies()
	tr := scriptedTrace(lats)
	got, want := telemetry.NewRegistry(), telemetry.NewRegistry()
	// Two replays into one registry: the batches must accumulate too.
	for i := 0; i < 2; i++ {
		if _, err := ReplayObserved(scriptedNet{4}, tr, got); err != nil {
			t.Fatal(err)
		}
		observeReference(want, lats)
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("batched telemetry differs from per-packet reference:\n got: %+v\nwant: %+v", gs, ws)
	}
	h := ws.Histograms["noc.replay.latency_cycles"]
	for _, b := range h.Buckets {
		if b.Count == 0 {
			t.Errorf("fixture never reaches bucket le=%s", b.LE)
		}
	}
}

// TestReplayObservedRegistersEagerly pins that an empty replay still
// registers the noc.replay.* names (the metric-name goldens rely on
// it) and records nothing.
func TestReplayObservedRegistersEagerly(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := ReplayObserved(scriptedNet{4}, &trace.Trace{N: 4, Cycles: 1}, reg); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	want := []string{"noc.replay.flits", "noc.replay.latency_cycles", "noc.replay.packets"}
	if got := s.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	if h := s.Histograms["noc.replay.latency_cycles"]; h.Count != 0 || h.Sum != 0 {
		t.Errorf("empty replay recorded %+v", h)
	}
}

// repeat is n copies of v.
func repeat(v uint64, n int) []uint64 {
	l := make([]uint64, n)
	for i := range l {
		l[i] = v
	}
	return l
}

func TestReplayPercentilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomLats := func(n, span int) []uint64 {
		l := make([]uint64, n)
		for i := range l {
			l[i] = uint64(rng.Intn(span))
		}
		return l
	}
	// heavyTail puts about 2% of the packets far out: a tail past the
	// sample size takes the sort path, a nearer one the counting path.
	heavyTail := func(n int, tail uint64) []uint64 {
		l := randomLats(n, 20)
		for i := 0; i < n/50+1; i++ {
			l[rng.Intn(n)] = tail + uint64(rng.Intn(1000))
		}
		return l
	}
	cases := map[string][]uint64{
		"random narrow":           randomLats(10000, 100),
		"random wide":             randomLats(1000, 1_000_000),
		"all equal":               repeat(7, 1000),
		"all zero":                make([]uint64, 500),
		"single packet":           {12},
		"single zero packet":      {0},
		"two packets":             {3, 1},
		"heavy tail within range": heavyTail(10000, 8000),
		"heavy tail past range":   heavyTail(10000, 1<<30),
	}
	for size := 1; size <= 300; size += 37 {
		cases[fmt.Sprintf("random n=%d", size)] = randomLats(size, size+rng.Intn(2*size))
	}
	for name, lats := range cases {
		t.Run(name, func(t *testing.T) {
			st, err := Replay(scriptedNet{4}, scriptedTrace(lats))
			if err != nil {
				t.Fatal(err)
			}
			sorted := slices.Clone(lats)
			slices.Sort(sorted)
			var sum float64
			for _, l := range lats {
				sum += float64(l)
			}
			want := ReplayStats{
				Packets:     len(lats),
				AvgLatency:  sum / float64(len(lats)),
				P50Latency:  sorted[len(sorted)/2],
				P99Latency:  sorted[len(sorted)*99/100],
				MaxLatency:  sorted[len(sorted)-1],
				TotalFlits:  st.TotalFlits,
				FinishCycle: st.FinishCycle,
				TraceCycles: st.TraceCycles,
				NetworkName: st.NetworkName,
			}
			if st != want {
				t.Fatalf("stats = %+v, want %+v", st, want)
			}
		})
	}
}
