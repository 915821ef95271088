package adapt

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mnoc/internal/fault"
	"mnoc/internal/power"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

const testN = 16

// phaseShiftTrace is the canonical two-phase workload: a water_s-like
// neighbour phase followed by a radix-like scatter phase — structurally
// disjoint matrices, so the drift estimator sees a hard phase change at
// the boundary.
func phaseShiftTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.PhasedTrace(testN, []workload.Phase{
		{Bench: "water_s", Cycles: 100_000, Flits: 2000},
		{Bench: "radix", Cycles: 100_000, Flits: 2000},
	}, seed)
	if err != nil {
		t.Fatalf("PhasedTrace: %v", err)
	}
	return tr
}

func testConfig() Config {
	return Config{
		N:            testN,
		WindowCycles: 25_000,
		Seed:         7,
		QAPIters:     200,
	}
}

func TestPhaseShiftTriggersResolveAndSwap(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Instrument(reg)
	if err := c.Replay(phaseShiftTrace(t, 1), nil); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	st := c.Status()
	if st.Counts.Resolves < 1 {
		t.Errorf("resolves = %d, want >= 1", st.Counts.Resolves)
	}
	if st.Counts.Swaps < 1 {
		t.Errorf("swaps = %d, want >= 1", st.Counts.Swaps)
	}
	if st.Generation == 0 {
		t.Errorf("generation stayed 0 after %d swaps", st.Counts.Swaps)
	}
	if got := c.Active().Gen; got != st.Generation {
		t.Errorf("active gen = %d, status generation = %d", got, st.Generation)
	}
	// The initial design is uniform-weighted; after adaptation the
	// active design must have been re-solved for observed traffic.
	if c.Active().TriggerWindow == 0 && st.Counts.Rollbacks == 0 {
		t.Errorf("active design was never re-solved (trigger window 0)")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricSwaps] != st.Counts.Swaps {
		t.Errorf("telemetry %s = %d, status swaps = %d", MetricSwaps, snap.Counters[MetricSwaps], st.Counts.Swaps)
	}
	if snap.Counters[MetricWindows] != st.Counts.Windows {
		t.Errorf("telemetry %s = %d, status windows = %d", MetricWindows, snap.Counters[MetricWindows], st.Counts.Windows)
	}
	if snap.Gauges[MetricGeneration] != float64(st.Generation) {
		t.Errorf("telemetry %s = %v, generation = %d", MetricGeneration, snap.Gauges[MetricGeneration], st.Generation)
	}
}

// TestDecisionLogDeterminism is the acceptance check: two seeded runs
// over the same stream produce byte-identical decision logs.
func TestDecisionLogDeterminism(t *testing.T) {
	run := func() []byte {
		c, err := NewController(testConfig())
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		if err := c.Replay(phaseShiftTrace(t, 1), nil); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, c.Log()); err != nil {
			t.Fatalf("WriteLog: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("empty decision log")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("decision logs differ across seeded runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestFinishSettlesTrailingTrigger pins the deferred settle: when the
// phase change trips the trigger in the trace's last window, no later
// window boundary exists to settle the re-solve, so Finish must log the
// swap at the trailing window index.
func TestFinishSettlesTrailingTrigger(t *testing.T) {
	tr, err := workload.PhasedTrace(testN, []workload.Phase{
		{Bench: "water_s", Cycles: 100_000, Flits: 2000},
		{Bench: "radix", Cycles: 50_000, Flits: 1000},
	}, 1)
	if err != nil {
		t.Fatalf("PhasedTrace: %v", err)
	}
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	for _, p := range tr.Packets {
		if err := c.Observe(p); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	// Every packet precedes cycle 150k, so the last window (5) is
	// still open: only Finish closes it.
	const last = 5
	before := len(c.Log())
	if c.Windows() != last {
		t.Fatalf("windows closed before Finish = %d, want %d", c.Windows(), last)
	}
	c.Finish()

	log := c.Log()
	got := log[before:]
	if len(got) != 2 {
		t.Fatalf("Finish logged %d decisions, want trigger + swap; log: %v", len(got), log)
	}
	if got[0].Window != last || !strings.HasPrefix(got[0].What, "trigger re-solve") {
		t.Errorf("first Finish decision = %q, want the trigger at window %d", got[0], last)
	}
	if got[1].Window != last+1 || !strings.HasPrefix(got[1].What, fmt.Sprintf("swap -> gen 2 (trigger window %d,", last)) {
		t.Errorf("second Finish decision = %q, want the swap at window %d", got[1], last+1)
	}
	st := c.Status()
	if st.Pending {
		t.Errorf("a re-solve is still pending after Finish")
	}
	if st.Generation != 2 || c.Active().Gen != 2 || c.Active().TriggerWindow != last {
		t.Errorf("active design gen %d (trigger window %d), status gen %d; want gen 2 from window %d",
			c.Active().Gen, c.Active().TriggerWindow, st.Generation, last)
	}
}

func TestRuleEngineSuppression(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.drift = 0.9 // above driftHigh

	// An open regression watch suppresses.
	c.watch = &regressionWatch{}
	c.maybeTrigger(5)
	c.watch = nil
	// Cooldown suppresses.
	c.cooldownUntil = 10
	c.maybeTrigger(6)
	c.cooldownUntil = 0
	// Minimum re-solve gap suppresses.
	c.hasTriggered, c.lastTrigger = true, 6
	c.maybeTrigger(7)

	if c.stats.Suppressed != 3 {
		t.Fatalf("suppressed = %d, want 3; log: %v", c.stats.Suppressed, c.log)
	}
	if c.stats.Triggers != 0 {
		t.Fatalf("triggers = %d, want 0", c.stats.Triggers)
	}
	wants := []string{"regression watch active", "cooldown until window 10", "min re-solve gap"}
	for i, want := range wants {
		if !strings.Contains(c.log[i].What, want) {
			t.Errorf("log[%d] = %q, want substring %q", i, c.log[i].What, want)
		}
	}
}

func TestHysteresisRearm(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.armed = false
	c.drift = driftLow + 0.01
	c.closeWindow()
	// drift recomputes in closeWindow; with no traffic the estimate is
	// untouched (ewma nil -> drift 0), so the re-arm path runs.
	if !c.armed {
		t.Fatalf("controller did not re-arm once drift fell below driftLow")
	}
}

// TestRollbackOnRegression forces a regression watch whose new design
// prices worse than the old on the observed traffic.
func TestRollbackOnRegression(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	// Observed traffic: a single hot pair (0 -> 1).
	hot := trace.NewMatrix(testN)
	hot.Counts[0][1] = 1

	// Old design: splitters sampled for exactly that matrix. New
	// design: sampled for the transpose — mis-provisioned for the
	// observed traffic, so it prices strictly worse.
	cold := hot.Clone()
	cold.Counts[0][1] = 0
	cold.Counts[1][0] = 1
	mk := func(m *trace.Matrix, gen uint64) *Design {
		net, err := power.NewMNoC(c.pcfg, c.topo, power.SampledWeighting(m))
		if err != nil {
			t.Fatalf("NewMNoC: %v", err)
		}
		d := &Design{Gen: gen, Net: net, Assignment: c.Active().Assignment, Ref: m.Normalized()}
		return d
	}
	prev, next := mk(hot, 1), mk(cold, 2)
	c.gen = 2
	c.active.Store(next)
	c.watch = &regressionWatch{prev: prev, next: next}
	c.cur = hot.Clone()
	for w := uint64(0); c.watch != nil; w++ {
		c.watchWindow(w)
	}
	if c.stats.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1; log: %v", c.stats.Rollbacks, c.log)
	}
	got := c.Active()
	if got.Gen != 3 || got.Net != prev.Net {
		t.Errorf("active after rollback: gen %d net %p, want gen 3 with previous net %p", got.Gen, got.Net, prev.Net)
	}
}

// TestMarginBoundRejectsCandidate injects a permanent degrade so deep
// that no escalation headroom covers it; the candidate must be
// rejected, never swapped.
func TestMarginBoundRejectsCandidate(t *testing.T) {
	cfg := testConfig()
	sched := &fault.Schedule{N: testN, Cycles: 400_000}
	for node := 0; node < testN; node++ {
		sched.Faults = append(sched.Faults, fault.Fault{
			Cycle: 0, Kind: fault.LEDDegrade, Node: node, Aux: -1, SeverityDB: 60,
		})
	}
	cfg.Faults = sched
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if err := c.Replay(phaseShiftTrace(t, 1), nil); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	st := c.Status()
	if st.Counts.Rejected < 1 {
		t.Fatalf("rejected = %d, want >= 1; log: %v", st.Counts.Rejected, c.Log())
	}
	if st.Counts.Swaps != 0 {
		t.Errorf("swaps = %d, want 0 under a 60 dB permanent degrade", st.Counts.Swaps)
	}
	if st.Generation != 0 {
		t.Errorf("generation = %d, want 0 (initial design retained)", st.Generation)
	}
	if st.LossRate == 0 && st.Counts.Windows > 0 {
		t.Errorf("loss estimator saw no losses under a 60 dB degrade")
	}
}

// TestAtomicSwapUnderConcurrentReaders hammers Active() from reader
// goroutines while the controller swaps designs — under -race this is
// the torn-design regression test. Each reader copies the design the
// moment it loads it. Reader 0 does nothing else: pricing traffic and
// tracking generations synchronise through shared atomics, which can
// order a reader after the controller. The readers stop only once
// reader 0 has copied the final design, so a write made to it after
// its publication races with that copy.
func TestAtomicSwapUnderConcurrentReaders(t *testing.T) {
	c, err := NewController(testConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	probe, err := workload.PhasedTrace(testN, []workload.Phase{{Bench: "fft", Cycles: 1000, Flits: 200}}, 3)
	if err != nil {
		t.Fatalf("PhasedTrace: %v", err)
	}
	probeM := probe.Matrix()

	var stop atomic.Bool
	var copied atomic.Pointer[Design] // the design reader 0 copied last
	var lastGen atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		copyOnly := r == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				p := c.Active()
				d := *p
				if d.Net == nil || len(d.Assignment) != testN || d.Ref == nil {
					errs <- fmt.Errorf("torn design observed at gen %d", d.Gen)
					return
				}
				if copyOnly {
					copied.Store(p)
					continue
				}
				if _, err := d.EvaluatePower(probeM, 1000); err != nil {
					errs <- err
					return
				}
				for {
					prev := lastGen.Load()
					if d.Gen < prev {
						// Gens may retreat only transiently between a
						// racing reader pair; a load-after-store of a
						// lower gen from one goroutine is still fine.
						break
					}
					if lastGen.CompareAndSwap(prev, d.Gen) {
						break
					}
				}
			}
		}()
	}
	if err := c.Replay(phaseShiftTrace(t, 1), nil); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// Stopping orders the readers after every write the controller
	// made, so reader 0 must copy the final design first.
	for copied.Load() != c.Active() && len(errs) == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("reader: %v", err)
	}
	if c.Status().Counts.Swaps == 0 {
		t.Fatalf("no swaps occurred; the race test exercised nothing")
	}
}
