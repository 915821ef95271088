// Allocation guards for the Evaluate hot path (the allocation campaign
// tracked by BENCH_baseline.json): the uninstrumented path is pinned at
// zero allocations per call, the instrumented path at a small constant
// once its metric handles and mode scratch are warm, and concurrent
// instrumented Evaluates (the serve path) must agree with a serial
// reference under -race.
package power

import (
	"sync"
	"testing"

	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
)

func evaluateFixture(t *testing.T, n int) (*MNoC, func() *MNoC) {
	t.Helper()
	cfg := DefaultConfig(n)
	base, err := NewBaseMNoC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *MNoC {
		m, err := NewBaseMNoC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return base, fresh
}

func TestEvaluateUninstrumentedAllocFree(t *testing.T) {
	n := 32
	m, _ := evaluateFixture(t, n)
	mtx := uniformMatrix(n, 10)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Evaluate(mtx, 10000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("uninstrumented Evaluate allocates %.1f times per call, want 0", allocs)
	}
}

func TestEvaluateInstrumentedStaysCheap(t *testing.T) {
	n := 32
	m, _ := evaluateFixture(t, n)
	m.Instrument(telemetry.NewRegistry())
	mtx := uniformMatrix(n, 10)
	// Warm the handle cache and the scratch pool.
	for i := 0; i < 3; i++ {
		if _, err := m.Evaluate(mtx, 10000); err != nil {
			t.Fatal(err)
		}
	}
	// The steady state is allocation-free (pooled scratch, cached
	// handles), but GC may empty a sync.Pool at any time, so the guard
	// is a small bound rather than an exact zero.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Evaluate(mtx, 10000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("instrumented Evaluate allocates %.1f times per call, want ≤ 2", allocs)
	}
}

// TestEvaluateInstrumentedConcurrent hammers the shared scratch pool
// and handle cache from many goroutines; the breakdowns must match a
// serial reference and the evaluation counter must see every call.
func TestEvaluateInstrumentedConcurrent(t *testing.T) {
	n := 32
	m, _ := evaluateFixture(t, n)
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	mtx := uniformMatrix(n, 10)
	want, err := m.Evaluate(mtx, 10000)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := m.Evaluate(mtx, 10000)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got != want {
					t.Errorf("worker %d: breakdown drifted: %+v vs %+v", w, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("power.evaluations").Value(); got != workers*iters+1 {
		t.Errorf("power.evaluations = %d, want %d", got, workers*iters+1)
	}
}

// TestInstrumentReregisters checks that re-instrumenting with a new
// registry drops the cached handles: metrics land in the new registry,
// and detaching (nil) returns Evaluate to the uninstrumented path.
func TestInstrumentReregisters(t *testing.T) {
	n := 16
	tp, err := topo.DistanceBased(n, []int{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMNoC(DefaultConfig(n), tp, UniformWeighting(2))
	if err != nil {
		t.Fatal(err)
	}
	mtx := uniformMatrix(n, 5)

	first := telemetry.NewRegistry()
	m.Instrument(first)
	if _, err := m.Evaluate(mtx, 1000); err != nil {
		t.Fatal(err)
	}
	second := telemetry.NewRegistry()
	m.Instrument(second)
	if _, err := m.Evaluate(mtx, 1000); err != nil {
		t.Fatal(err)
	}
	if got := first.Counter("power.evaluations").Value(); got != 1 {
		t.Errorf("first registry saw %d evaluations, want 1", got)
	}
	if got := second.Counter("power.evaluations").Value(); got != 1 {
		t.Errorf("second registry saw %d evaluations, want 1", got)
	}
	if got := second.Histogram("power.mode1.source_uw").Count(); got != 1 {
		t.Errorf("second registry mode-1 histogram saw %d observations, want 1", got)
	}
	m.Instrument(nil)
	if _, err := m.Evaluate(mtx, 1000); err != nil {
		t.Fatal(err)
	}
	if got := second.Counter("power.evaluations").Value(); got != 1 {
		t.Errorf("detached Evaluate still reported: %d", got)
	}
}

// TestEvaluateLossWorstSkipsTelemetry checks that a worst-case
// evaluation reports to no metric sink, as the repriced view it
// replaces never did, and that once its table is built it is as
// allocation-free as the uninstrumented average path.
func TestEvaluateLossWorstSkipsTelemetry(t *testing.T) {
	n := 32
	m, _ := evaluateFixture(t, n)
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	mtx := uniformMatrix(n, 10)
	if _, err := m.EvaluateLoss(mtx, 10000, LossWorst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.EvaluateLoss(mtx, 10000, LossWorst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm worst-case EvaluateLoss allocates %.1f times per call, want 0", allocs)
	}
	if got := reg.Counter("power.evaluations").Value(); got != 0 {
		t.Errorf("worst-case evaluations reported %d times to power.evaluations, want 0", got)
	}
}

// TestEvaluateLossWorstFirstUseConcurrent has eight goroutines make
// the first worst-case EvaluateLoss call on one fresh network at once
// (the table is built and published under that race); every result
// must equal a serial reference taken on a separate network.
func TestEvaluateLossWorstFirstUseConcurrent(t *testing.T) {
	n := 32
	ref, fresh := evaluateFixture(t, n)
	mtx := uniformMatrix(n, 10)
	want, err := ref.EvaluateLoss(mtx, 10000, LossWorst)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		m := fresh()
		const workers = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := m.EvaluateLoss(mtx, 10000, LossWorst)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got != want {
					t.Errorf("worker %d: breakdown %+v, serial reference %+v", w, got, want)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
