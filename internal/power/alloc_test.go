// Allocation guards for the Evaluate hot path (the allocation campaign
// tracked by BENCH_baseline.json): the uninstrumented path is pinned at
// zero allocations per call, the instrumented path at a small constant
// once its metric handles and mode scratch are warm, and concurrent
// instrumented Evaluates (the serve path) must agree with a serial
// reference under -race.
package power

import (
	"fmt"
	"sync"
	"testing"

	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
)

func evaluateFixture(t *testing.T, n int) *MNoC {
	t.Helper()
	m, err := NewBaseMNoC(DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEvaluateUninstrumentedAllocFree(t *testing.T) {
	n := 32
	m := evaluateFixture(t, n)
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
	m := evaluateFixture(t, n)
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
// and handle cache from many goroutines, which also make the network's
// first instrumented Evaluate together, so the handles are built and
// published under the race; the breakdowns must match a reference
// network's and the evaluation counter must see every call.
func TestEvaluateInstrumentedConcurrent(t *testing.T) {
	n := 32
	mtx := uniformMatrix(n, 10)
	ref := evaluateFixture(t, n)
	ref.Instrument(telemetry.NewRegistry())
	want, err := ref.Evaluate(mtx, 10000)
	if err != nil {
		t.Fatal(err)
	}
	m := evaluateFixture(t, n)
	reg := telemetry.NewRegistry()
	m.Instrument(reg)

	const workers = 8
	const iters = 25
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
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
	close(start)
	wg.Wait()
	if got := reg.Counter("power.evaluations").Value(); got != workers*iters {
		t.Errorf("power.evaluations = %d, want %d", got, workers*iters)
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
// replaces never did, and that once its pricing plan is built it is as
// allocation-free as the uninstrumented average path.
func TestEvaluateLossWorstSkipsTelemetry(t *testing.T) {
	n := 32
	m := evaluateFixture(t, n)
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
// (its average and worst-case pricing plans are built and published
// under that race); every result must equal a serial reference taken
// on a separate network.
func TestEvaluateLossWorstFirstUseConcurrent(t *testing.T) {
	firstUseConcurrent(t, LossWorst)
}

// TestEvaluateLossAverageFirstUseConcurrent is the same race on the
// average plan of a fresh instrumented network: the breakdowns must
// match the serial reference, and the evaluation counter and per-mode
// source sums must equal those of the same calls made serially.
func TestEvaluateLossAverageFirstUseConcurrent(t *testing.T) {
	firstUseConcurrent(t, LossAverage)
}

func firstUseConcurrent(t *testing.T, model LossModel) {
	const n, workers = 32, 8
	tp, err := topo.DistanceBased(n, []int{8, 8, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(reg *telemetry.Registry) *MNoC {
		m, err := NewMNoC(DefaultConfig(n), tp, UniformWeighting(4))
		if err != nil {
			t.Fatal(err)
		}
		m.Instrument(reg)
		return m
	}
	mtx := skewedMatrix(n)
	serialReg := telemetry.NewRegistry()
	ref := fresh(serialReg)
	var want Breakdown
	for i := 0; i < workers; i++ {
		if want, err = ref.EvaluateLoss(mtx, 10000, model); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		reg := telemetry.NewRegistry()
		m := fresh(reg)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got, err := m.EvaluateLoss(mtx, 10000, model)
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
		if got, want := reg.Counter("power.evaluations").Value(), serialReg.Counter("power.evaluations").Value(); got != want {
			t.Errorf("round %d: power.evaluations = %d, serial %d", round, got, want)
		}
		for k := 0; k < tp.Modes; k++ {
			name := fmt.Sprintf("power.mode%d.source_uw", k)
			if got, want := reg.Histogram(name).Sum(), serialReg.Histogram(name).Sum(); got != want {
				t.Errorf("round %d: %s sums to %v, serial %v", round, name, got, want)
			}
		}
	}
}
