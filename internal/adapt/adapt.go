// Package adapt is the online adaptation loop: a long-running
// controller that watches a live or replayed packet stream, detects
// traffic-phase changes and loss drift with windowed estimators, and
// re-solves the power topology when the traffic moves — the runtime
// counterpart to the static Fig. 10 phase analysis, in the spirit of
// PROTEUS-style laser-power co-management.
//
// The control loop is window-based. Packets accumulate into a traffic
// matrix per fixed-length cycle window; at each window boundary the
// controller updates an EWMA estimate of the offered traffic, measures
// its total-variation distance from the matrix the active design was
// solved for (drift), and estimates the loss rate against an optional
// fault schedule. A fixed rule engine (hysteresis thresholds,
// cooldown, minimum re-solve gap, rollback-on-regression) decides
// whether to trigger a re-solve: a QAP re-mapping warm-started from
// the previous assignment plus a sampled-weight splitter re-design.
// The re-solve runs at the trigger and its candidate is settled at
// the next window boundary. Candidates are admitted only if the
// recovery ladder's escalation margin bound holds for every
// traffic-carrying pair, then swapped in atomically behind an
// RCU-style pointer — readers (request handlers) load one pointer and
// never observe a torn design.
//
// Every decision is appended to a canonical text log and published
// through internal/telemetry (the adapt.* metric family). All
// decisions are deterministic functions of (trace, schedule, config),
// so two seeded runs produce byte-identical decision logs.
package adapt

import (
	"fmt"

	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/trace"
)

// Metric names of the adapt.* family (docs/TELEMETRY.md; pinned by
// testdata/golden/metrics_names_adapt.txt).
const (
	// MetricWindows counts closed observation windows.
	MetricWindows = "adapt.windows"
	// MetricTriggers counts rule-engine re-solve triggers.
	MetricTriggers = "adapt.triggers"
	// MetricResolves counts settled re-solves.
	MetricResolves = "adapt.resolves"
	// MetricSwaps counts atomic design swaps.
	MetricSwaps = "adapt.swaps"
	// MetricRollbacks counts rollback-on-regression reversions.
	MetricRollbacks = "adapt.rollbacks"
	// MetricSuppressed counts triggers suppressed by the rule engine
	// (regression watch active, cooldown, minimum gap).
	MetricSuppressed = "adapt.suppressed"
	// MetricRejected counts candidate designs rejected by the
	// escalation margin bound.
	MetricRejected = "adapt.rejected"
	// MetricGeneration is the active design generation.
	MetricGeneration = "adapt.generation"
	// MetricDrift is the last window's traffic drift estimate.
	MetricDrift = "adapt.drift"
	// MetricLossRate is the last window's loss-rate estimate.
	MetricLossRate = "adapt.loss_rate"
	// MetricResolveMS is the re-solve wall-clock latency.
	MetricResolveMS = "adapt.resolve_ms"
)

// ResolveMSBuckets are the bucket bounds (ms) of adapt.resolve_ms.
var ResolveMSBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10_000}

// The rule engine: when to trigger a re-solve and when to hold back so
// the loop degrades gracefully instead of thrashing under a fault
// storm. The watermarks sit above the sampling noise of a ~500-packet
// window (TV noise floor ≈ 0.25 for a 16-node matrix).
const (
	// driftHigh/driftLow are the hysteresis watermarks on the drift
	// estimate: a re-solve triggers when drift rises above driftHigh
	// while armed, and the trigger re-arms only once drift falls back
	// below driftLow (and loss below lossLow).
	driftHigh, driftLow = 0.45, 0.30
	// lossHigh/lossLow are the same watermarks on the windowed
	// loss-rate estimate.
	lossHigh, lossLow = 0.05, 0.01
	// cooldownWindows suppresses new triggers for this many windows
	// after a swap or rollback.
	cooldownWindows uint64 = 3
	// minResolveGapWindows is the minimum number of windows between
	// consecutive triggers — the maximum re-solve rate.
	minResolveGapWindows uint64 = 2
	// rollbackWindows is how many windows after a swap both the old
	// and new design are priced on the observed traffic before the
	// swap is declared an improvement or rolled back.
	rollbackWindows uint64 = 2
	// regressionFrac rolls the swap back when the new design's power
	// over the watch windows exceeds the old design's by this
	// fraction.
	regressionFrac = 0.02
	// ewmaAlpha is the EWMA smoothing factor on the normalized window
	// matrices.
	ewmaAlpha = 0.5
)

// Config configures a Controller. The controller designs over the
// 2-mode distance-based halves partition (the paper's 2M_D shape) with
// power.DefaultConfig(N) devices.
type Config struct {
	// N is the node count of the observed stream.
	N int
	// WindowCycles is the observation window length (0 = 25 000).
	WindowCycles uint64
	// Seed drives the warm-started QAP re-solves (the per-trigger seed
	// is Seed+window+1 so repeated triggers explore fresh tabu walks,
	// deterministically).
	Seed int64
	// QAPIters is the tabu-search budget per re-solve (0 = the
	// mapping package default, 40·N).
	QAPIters int
	// GuardDB is the chip-wide drive guard band assumed when checking
	// the escalation margin bound and estimating losses.
	GuardDB phys.Decibels
	// Faults optionally injects a fault schedule: the loss estimator
	// checks each packet's deliverability against the active design's
	// margins, and the escalation margin bound subtracts the
	// permanent path losses active at the window boundary.
	Faults *fault.Schedule
}

// Design is one immutable generation of the adaptive design: the
// solved network, the thread→core assignment, and the normalized
// traffic matrix it was solved for (the drift reference). Readers
// obtain it from Controller.Active with a single atomic pointer load
// and may use it without further synchronisation.
type Design struct {
	// Gen is the swap generation: 0 for the initial design, +1 per
	// swap or rollback.
	Gen uint64
	// Net is the solved network.
	Net *power.MNoC
	// Assignment maps threads to cores (apply with Matrix.Permute
	// before evaluating thread-space traffic on Net).
	Assignment mapping.Assignment
	// Ref is the normalized thread-space traffic matrix the design
	// was solved for; drift is measured against it.
	Ref *trace.Matrix
	// TriggerWindow is the window whose estimate triggered the solve
	// (0 for the initial design).
	TriggerWindow uint64
}

// EvaluatePower prices a thread-space traffic matrix on the design:
// permute by the assignment, then power.MNoC.Evaluate. Pure and safe
// for concurrent use.
func (d *Design) EvaluatePower(m *trace.Matrix, cycles float64) (power.Breakdown, error) {
	mapped, err := m.Permute(d.Assignment)
	if err != nil {
		return power.Breakdown{}, fmt.Errorf("adapt: evaluating gen %d: %w", d.Gen, err)
	}
	b, err := d.Net.Evaluate(mapped, cycles)
	if err != nil {
		return power.Breakdown{}, fmt.Errorf("adapt: evaluating gen %d: %w", d.Gen, err)
	}
	return b, nil
}
