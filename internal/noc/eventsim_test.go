// A strict discrete-event replay of packet traces on the mNoC crossbar,
// kept as a test oracle for the reservation timing model. Each shared
// resource (a source's waveguide, a destination's ejection port) is a
// FIFO server driven by a global event queue in exact time order, so
// packets are serviced in *arrival* order rather than call order.
//
// The two models approximate each other from different directions
// (reservation serves in issue order; the event queue serves in arrival
// order). The tests below bound their disagreement: an exact match on
// disjoint time-sorted traffic and within 5% on benchmark traces. The
// oracle deliberately shares no code with noc.go.
package noc

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"mnoc/internal/trace"
	"mnoc/internal/waveguide"
	"mnoc/internal/workload"
)

// eventStage identifies where a packet is in its lifecycle.
type eventStage uint8

const (
	stageInject eventStage = iota // waiting to enter the source guide
	stageArrive                   // head reached the destination, waiting to eject
)

type eventPacket struct {
	src    int
	dst    int
	flits  uint64
	inject uint64
	done   uint64
}

type event struct {
	at  uint64
	seq int // FIFO tie-break: earlier-created events first
	pkt *eventPacket
	st  eventStage
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// fifoServer is a FIFO resource with one or more parallel channels; an
// arriving packet takes the earliest-free channel.
type fifoServer struct {
	free []uint64
}

func newFIFOServers(n, channels int) []fifoServer {
	out := make([]fifoServer, n)
	for i := range out {
		out[i].free = make([]uint64, channels)
	}
	return out
}

// take books the earliest-free channel from `at` for `dur` cycles and
// returns the service start.
func (s *fifoServer) take(at, dur uint64) uint64 {
	best := 0
	for i, f := range s.free {
		if f < s.free[best] {
			best = i
		}
	}
	start := at
	if s.free[best] > start {
		start = s.free[best]
	}
	s.free[best] = start + dur
	return start
}

// eventStats holds the ReplayStats fields both models share.
type eventStats struct {
	Packets     int
	AvgLatency  float64
	MaxLatency  uint64
	FinishCycle uint64
}

// replayEvents replays the trace on an n-node SWMR mNoC with exact FIFO
// event ordering. Latency semantics match MNoC: serialisation on the
// source guide, E/O+O/E (1 cycle), optical propagation, ejection
// serialisation at the destination.
func replayEvents(n int, tr *trace.Trace) (eventStats, error) {
	if tr.N != n {
		return eventStats{}, fmt.Errorf("eventsim: trace for %d nodes, network for %d", tr.N, n)
	}
	layout := waveguide.NewSerpentine(n)
	if err := layout.Validate(); err != nil {
		return eventStats{}, err
	}

	pkts := make([]eventPacket, len(tr.Packets))
	var h eventHeap
	seq := 0
	for i, p := range tr.Packets {
		pkts[i] = eventPacket{
			src: int(p.Src), dst: int(p.Dst),
			flits: uint64(p.Flits), inject: p.Cycle,
		}
		h = append(h, event{at: p.Cycle, seq: seq, pkt: &pkts[i], st: stageInject})
		seq++
	}
	heap.Init(&h)

	// Channel counts mirror MNoC: one waveguide per source, four
	// parallel ejection buffers per destination.
	srcSrv := newFIFOServers(n, 1)
	dstSrv := newFIFOServers(n, 4)
	const eooe = 1 // E/O + O/E modelled as one cycle (Table 2)

	var st eventStats
	var latSum float64
	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		switch ev.st {
		case stageInject:
			start := srcSrv[ev.pkt.src].take(ev.at, ev.pkt.flits)
			headArrive := start + eooe + uint64(layout.LatencyCycles(ev.pkt.src, ev.pkt.dst))
			heap.Push(&h, event{at: headArrive, seq: seq, pkt: ev.pkt, st: stageArrive})
			seq++
		case stageArrive:
			start := dstSrv[ev.pkt.dst].take(ev.at, ev.pkt.flits)
			ev.pkt.done = start + ev.pkt.flits

			lat := ev.pkt.done - ev.pkt.inject
			latSum += float64(lat)
			if lat > st.MaxLatency {
				st.MaxLatency = lat
			}
			if ev.pkt.done > st.FinishCycle {
				st.FinishCycle = ev.pkt.done
			}
			st.Packets++
		}
	}
	if st.Packets > 0 {
		st.AvgLatency = latSum / float64(st.Packets)
	}
	return st, nil
}

// replayBoth runs the event oracle and the reservation model on tr.
func replayBoth(t *testing.T, n int, tr *trace.Trace) (eventStats, ReplayStats) {
	t.Helper()
	ev, err := replayEvents(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewMNoC(n)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Replay(net, tr)
	if err != nil {
		t.Fatal(err)
	}
	return ev, rs
}

func TestSinglePacketLatencyMatchesReservationModel(t *testing.T) {
	tr := &trace.Trace{N: 64, Cycles: 1000, Packets: []trace.Packet{
		{Cycle: 10, Src: 5, Dst: 40, Flits: 3},
	}}
	ev, rs := replayBoth(t, 64, tr)
	if ev.AvgLatency != rs.AvgLatency {
		t.Errorf("uncontended latency differs: event %v vs reservation %v", ev.AvgLatency, rs.AvgLatency)
	}
}

// TestExactMatchOnTimeSortedDisjointTraffic: when packets are
// time-sorted and each source-destination stream is disjoint, issue
// order equals arrival order and the two models must agree exactly.
func TestExactMatchOnTimeSortedDisjointTraffic(t *testing.T) {
	tr := &trace.Trace{N: 32, Cycles: 100000}
	for i := 0; i < 500; i++ {
		s := i % 16
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: uint64(i * 20), Src: int32(s), Dst: int32(s + 16), Flits: 4,
		})
	}
	ev, rs := replayBoth(t, 32, tr)
	if ev.AvgLatency != rs.AvgLatency || ev.MaxLatency != rs.MaxLatency || ev.FinishCycle != rs.FinishCycle {
		t.Errorf("models diverged on disjoint traffic: event %+v vs reservation avg=%v max=%v finish=%v",
			ev, rs.AvgLatency, rs.MaxLatency, rs.FinishCycle)
	}
}

// TestCrossValidationOnRealWorkloads bounds the disagreement between
// the event-driven and reservation models on the actual benchmark
// traces: the reservation approximation must stay within a few percent
// of exact FIFO service.
func TestCrossValidationOnRealWorkloads(t *testing.T) {
	n := 64
	for _, name := range []string{"fft", "barnes", "radix"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := b.Trace(n, 100_000, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev, rs := replayBoth(t, n, tr)
		if ev.Packets != rs.Packets {
			t.Fatalf("%s: packet counts differ", name)
		}
		rel := math.Abs(ev.AvgLatency-rs.AvgLatency) / ev.AvgLatency
		if rel > 0.05 {
			t.Errorf("%s: models disagree by %.1f%% (event %v vs reservation %v)",
				name, 100*rel, ev.AvgLatency, rs.AvgLatency)
		}
	}
}

func TestEventReplayRejectsMismatch(t *testing.T) {
	tr := &trace.Trace{N: 8, Cycles: 10}
	if _, err := replayEvents(16, tr); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestEventReplayEmptyTrace(t *testing.T) {
	tr := &trace.Trace{N: 16, Cycles: 10}
	st, err := replayEvents(16, tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 0 || st.AvgLatency != 0 {
		t.Errorf("empty trace produced stats: %+v", st)
	}
}
