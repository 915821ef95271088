// Tests for the packet-buffer recycling of the allocation campaign:
// Result.Recycle hands trace buffers back to a shared sync.Pool, so
// concurrent machines hammer the pool here (run under -race by `make
// check`) while every result must stay bit-identical to a fresh run.
package sim

import (
	"runtime"
	"sync"
	"testing"

	"mnoc/internal/noc"
	"mnoc/internal/workload"
)

func referenceRun(t *testing.T, cores int, streams [][]Access) *Result {
	t.Helper()
	res, err := newMachine(t, cores).Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecycleReusesPacketBuffer pins the recycling contract on a single
// machine: recycled capacity is reused (no regrowth) and results stay
// identical run over run.
func TestRecycleReusesPacketBuffer(t *testing.T) {
	cores := 8
	b, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	streams, err := StreamsFromBenchmark(b, smallConfig(cores), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, cores, streams)
	for i := 0; i < 5; i++ {
		// A fresh machine per run: caches and directory state warm
		// across Run calls on one machine, so only fresh-machine runs
		// are comparable. The packet pool is what persists.
		res, err := newMachine(t, cores).Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		if res.RuntimeCycles != want.RuntimeCycles {
			t.Fatalf("run %d: %d cycles, want %d", i, res.RuntimeCycles, want.RuntimeCycles)
		}
		if got, exp := len(res.Trace.Packets), len(want.Trace.Packets); got != exp {
			t.Fatalf("run %d: %d packets, want %d", i, got, exp)
		}
		res.Recycle()
		if res.Trace != nil {
			t.Fatal("Recycle left the trace attached")
		}
		res.Recycle() // double-recycle must be a no-op
	}
}

// TestPacketPoolConcurrent runs many machines in parallel, each
// recycling its results, and checks every run against a reference
// computed before the pool was ever touched. Under -race this is the
// buffer-reuse safety net: a recycled buffer leaking into a live trace
// shows up as a data race or a result mismatch.
func TestPacketPoolConcurrent(t *testing.T) {
	cores := 8
	benches := []string{"fft", "barnes", "radix"}
	type job struct {
		streams [][]Access
		want    *Result
	}
	jobs := make([]job, len(benches))
	for i, name := range benches {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := StreamsFromBenchmark(b, smallConfig(cores), 150, 7)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{streams: streams, want: referenceRun(t, cores, streams)}
	}

	const workers = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		// Machines are built per iteration (warm caches make reruns on
		// one machine incomparable), via error returns: t.Fatal is
		// goroutine-unsafe.
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			for i := 0; i < iters; i++ {
				net, err := noc.NewMNoC(cores)
				if err != nil {
					errs <- err
					return
				}
				m, err := NewMachine(smallConfig(cores), net)
				if err != nil {
					errs <- err
					return
				}
				res, err := m.Run(j.streams)
				if err != nil {
					errs <- err
					return
				}
				if res.RuntimeCycles != j.want.RuntimeCycles ||
					len(res.Trace.Packets) != len(j.want.Trace.Packets) {
					t.Errorf("worker %d run %d: %d cycles/%d packets, want %d/%d",
						w, i, res.RuntimeCycles, len(res.Trace.Packets),
						j.want.RuntimeCycles, len(j.want.Trace.Packets))
				}
				res.Recycle()
				// Yield, so the next Run on this P, usually another
				// worker's, draws the buffer just returned: a buffer
				// written after its Put then races with its next owner.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
