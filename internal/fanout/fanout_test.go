package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneWorkerRunsInIndexOrder pins in-order admission: with one
// worker every index runs, in increasing order, on worker 0.
func TestOneWorkerRunsInIndexOrder(t *testing.T) {
	var got []int
	Run(context.Background(), 10, 1, func(worker, i int) {
		if worker != 0 {
			t.Errorf("worker %d, want 0", worker)
		}
		got = append(got, i)
	})
	if len(got) != 10 {
		t.Fatalf("ran %d items, want 10", len(got))
	}
	for k, i := range got {
		if i != k {
			t.Fatalf("call %d got index %d, want index order: %v", k, i, got)
		}
	}
}

// TestBoundsConcurrencyAndWorkerIndex checks that every index runs
// exactly once, that no more than `workers` calls are ever in flight,
// and that each call's worker index lies in [0, workers).
func TestBoundsConcurrencyAndWorkerIndex(t *testing.T) {
	const n, workers = 64, 3
	var inFlight, peak atomic.Int32
	seen := make([]atomic.Int32, n)
	Run(context.Background(), n, workers, func(worker, i int) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		if worker < 0 || worker >= workers {
			t.Errorf("item %d ran on worker %d, want [0, %d)", i, worker, workers)
		}
		seen[i].Add(1)
		runtime.Gosched()
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d, want <= %d", p, workers)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
}

// TestCancelStopsHandingOutIndices cancels the context from inside a
// call and checks that no index is handed out afterwards. The one
// worker is blocked in the cancelling call, so the cut is exact.
func TestCancelStopsHandingOutIndices(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []int
	Run(ctx, 10, 1, func(_, i int) {
		got = append(got, i)
		if i == 3 {
			cancel()
		}
	})
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("ran %v after cancelling at index 3, want [0 1 2 3]", got)
	}

	// With several workers, calls already started finish, but every
	// index handed out after the cancel is one no worker had yet.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var mu sync.Mutex
	var after []int
	var cancelled atomic.Bool
	Run(ctx2, 100, 4, func(_, i int) {
		if cancelled.Load() {
			mu.Lock()
			after = append(after, i)
			mu.Unlock()
		}
		if i == 10 {
			cancel2()
			cancelled.Store(true)
		}
	})
	// Each of the three other workers may have passed its ctx check
	// just before the cancel and so take at most one more index.
	if len(after) > 3 {
		t.Errorf("%d indices started after the cancel (%v), want <= 3", len(after), after)
	}

	var calls atomic.Int32
	done, stop := context.WithCancel(context.Background())
	stop()
	Run(done, 10, 4, func(int, int) { calls.Add(1) })
	if c := calls.Load(); c != 0 {
		t.Errorf("pre-cancelled context ran %d calls, want 0", c)
	}
}

// TestEdgeSizes covers an empty run and more workers than items.
func TestEdgeSizes(t *testing.T) {
	Run(context.Background(), 0, 4, func(int, int) { t.Error("fn called for n=0") })

	var calls atomic.Int32
	Run(context.Background(), 2, 8, func(worker, i int) {
		if worker >= 2 {
			t.Errorf("worker %d with n=2, want < 2", worker)
		}
		calls.Add(1)
	})
	if c := calls.Load(); c != 2 {
		t.Errorf("n=2 workers=8 ran %d calls, want 2", c)
	}

	calls.Store(0)
	Run(context.Background(), 3, 0, func(worker, _ int) {
		if worker != 0 {
			t.Errorf("workers=0 ran on worker %d, want 0", worker)
		}
		calls.Add(1)
	})
	if c := calls.Load(); c != 3 {
		t.Errorf("workers=0 ran %d calls, want 3 (counts as one worker)", c)
	}
}

// TestNoGoroutineLeftBehind checks that Run's goroutines have exited
// when it returns, whether it ran to completion or was cancelled.
func TestNoGoroutineLeftBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	Run(context.Background(), 50, 8, func(int, int) { runtime.Gosched() })
	ctx, cancel := context.WithCancel(context.Background())
	Run(ctx, 50, 8, func(_, i int) {
		if i == 5 {
			cancel()
		}
	})
	cancel()
	// Goroutines other tests started may still be exiting, so allow
	// them a moment; Run's own are gone by the time it returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run returned, %d before", n, before)
	}
}

// TestBlockedWorkerDoesNotStall: index 0 blocks until index 2 has run,
// so Run returns only if the other worker keeps taking indices while
// one worker is blocked.
func TestBlockedWorkerDoesNotStall(t *testing.T) {
	thirdRan := make(chan struct{})
	var ran [3]atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Run(context.Background(), 3, 2, func(_, i int) {
			switch i {
			case 0:
				<-thirdRan
			case 2:
				close(thirdRan)
			}
			ran[i].Store(true)
		})
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Run stalled behind a blocked worker")
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("index %d never ran", i)
		}
	}
}
