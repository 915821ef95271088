// Concurrency test for ReplayObserved's pooled latency scratch (run
// under -race by `make check`): many replays share the pool, and every
// replay's stats must match a reference replay, whose percentiles in
// turn must match a plain sort of the packets' latencies.
package noc

import (
	"slices"
	"sync"
	"testing"

	"mnoc/internal/trace"
)

func replayFixture(t *testing.T, n, packets int) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{N: n, Cycles: uint64(packets + 100)}
	for i := 0; i < packets; i++ {
		src := i % n
		dst := (i*7 + 1) % n
		if dst == src {
			dst = (dst + 1) % n
		}
		tr.Packets = append(tr.Packets, trace.Packet{
			Cycle: uint64(i), Src: int32(src), Dst: int32(dst), Flits: int32(1 + i%4),
		})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sortedPercentiles sends tr through a fresh network packet by packet
// and sorts the latencies: Replay's P50 and P99 without its scratch.
func sortedPercentiles(t *testing.T, tr *trace.Trace) (p50, p99 uint64) {
	t.Helper()
	net, err := NewMNoC(tr.N)
	if err != nil {
		t.Fatal(err)
	}
	lats := make([]uint64, len(tr.Packets))
	for i, p := range tr.Packets {
		arr, err := net.Send(p.Cycle, int(p.Src), int(p.Dst), int(p.Flits))
		if err != nil {
			t.Fatal(err)
		}
		lats[i] = arr - p.Cycle
	}
	slices.Sort(lats)
	return lats[len(lats)/2], lats[len(lats)*99/100]
}

func TestReplayLatsPoolConcurrent(t *testing.T) {
	const n = 16
	traces := []*trace.Trace{
		// 13 packets whose latencies reach 12: the count buffer spans
		// the whole latency slice, so a replay whose latencies share
		// their backing array with its counts (a scratch handed back
		// to the pool too early and drawn again) corrupts both
		// percentiles.
		replayFixture(t, n, 13),
		replayFixture(t, n, 50),
		replayFixture(t, n, 500),
		replayFixture(t, n, 2000),
	}
	wants := make([]ReplayStats, len(traces))
	for i, tr := range traces {
		net, err := NewMNoC(n)
		if err != nil {
			t.Fatal(err)
		}
		wants[i], err = Replay(net, tr)
		if err != nil {
			t.Fatal(err)
		}
		if p50, p99 := sortedPercentiles(t, tr); wants[i].P50Latency != p50 || wants[i].P99Latency != p99 {
			t.Fatalf("trace %d: percentiles %d/%d, sorted reference %d/%d",
				i, wants[i].P50Latency, wants[i].P99Latency, p50, p99)
		}
	}

	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		net, err := NewMNoC(n) // networks are per-goroutine; only the pool is shared
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, want := traces[w%len(traces)], wants[w%len(traces)]
			for i := 0; i < iters; i++ {
				got, err := Replay(net, tr)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got != want {
					t.Errorf("worker %d run %d: stats drifted:\n got: %+v\nwant: %+v", w, i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayErrorReturnsScratch forces a Send failure mid-replay and
// then replays a clean trace: a scratch leaked (or double-put) on the
// error path would surface as corrupt percentiles here or as a race.
func TestReplayErrorReturnsScratch(t *testing.T) {
	net, err := NewMNoC(8)
	if err != nil {
		t.Fatal(err)
	}
	bad := &trace.Trace{N: 8, Cycles: 10, Packets: []trace.Packet{
		{Cycle: 0, Src: 0, Dst: 1, Flits: 1},
		{Cycle: 1, Src: 2, Dst: 2, Flits: 1}, // self-send: Send rejects it
	}}
	if _, err := Replay(net, bad); err == nil {
		t.Fatal("replay of a self-send trace succeeded")
	}
	good := replayFixture(t, 8, 100)
	want, err := Replay(net, good)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Replay(net, good)
	if err != nil {
		t.Fatal(err)
	}
	if want != again {
		t.Fatalf("stats drifted after error-path recycle:\n got: %+v\nwant: %+v", again, want)
	}
}
