// Package adapt is the online adaptation loop: a long-running
// controller that watches a live or replayed packet stream, detects
// traffic-phase changes and loss drift with windowed estimators, and
// re-solves the power topology in the background — the runtime
// counterpart to the static Fig. 10 phase analysis, in the spirit of
// PROTEUS-style laser-power co-management.
//
// The control loop is window-based. Packets accumulate into a traffic
// matrix per fixed-length cycle window; at each window boundary the
// controller updates an EWMA estimate of the offered traffic, measures
// its total-variation distance from the matrix the active design was
// solved for (drift), and estimates the loss rate against an optional
// fault schedule. A rule engine (hysteresis thresholds, cooldown,
// minimum re-solve gap, rollback-on-regression) decides whether to
// trigger a background re-solve: a QAP re-mapping warm-started from
// the previous assignment plus a sampled-weight splitter re-design.
// Candidate designs are admitted only if the recovery ladder's
// escalation margin bound holds for every traffic-carrying pair, then
// swapped in atomically behind an RCU-style pointer — readers
// (request handlers) load one pointer and never observe a torn design.
//
// Every decision is appended to a canonical text log and published
// through internal/telemetry (the adapt.* metric family). All
// decisions are deterministic functions of (trace, schedule, config):
// in lockstep mode the window boundary joins any pending background
// solve, so two seeded runs produce byte-identical decision logs.
package adapt

import (
	"fmt"

	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// Metric names of the adapt.* family (docs/TELEMETRY.md; pinned by
// testdata/golden/metrics_names_adapt.txt).
const (
	// MetricWindows counts closed observation windows.
	MetricWindows = "adapt.windows"
	// MetricTriggers counts rule-engine re-solve triggers.
	MetricTriggers = "adapt.triggers"
	// MetricResolves counts completed background re-solves.
	MetricResolves = "adapt.resolves"
	// MetricSwaps counts atomic design swaps.
	MetricSwaps = "adapt.swaps"
	// MetricRollbacks counts rollback-on-regression reversions.
	MetricRollbacks = "adapt.rollbacks"
	// MetricSuppressed counts triggers suppressed by the rule engine
	// (cooldown, re-solve already in flight, minimum gap).
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
	// MetricResolveMS is the background re-solve wall-clock latency.
	MetricResolveMS = "adapt.resolve_ms"
)

// ResolveMSBuckets are the bucket bounds (ms) of adapt.resolve_ms.
var ResolveMSBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10_000}

// Rules is the adaptation rule engine: when to trigger a re-solve and
// when to hold back so the loop degrades gracefully instead of
// thrashing under a fault storm.
type Rules struct {
	// DriftHigh/DriftLow are the hysteresis watermarks on the drift
	// estimate: a re-solve triggers when drift rises above DriftHigh
	// while armed, and the trigger re-arms only once drift falls back
	// below DriftLow (and loss below LossLow).
	DriftHigh, DriftLow float64
	// LossHigh/LossLow are the same watermarks on the windowed
	// loss-rate estimate.
	LossHigh, LossLow float64
	// CooldownWindows suppresses new triggers for this many windows
	// after a swap or rollback.
	CooldownWindows uint64
	// MinResolveGapWindows is the minimum number of windows between
	// consecutive triggers — the maximum re-solve rate.
	MinResolveGapWindows uint64
	// RollbackWindows is how many windows after a swap both the old
	// and new design are priced on the observed traffic before the
	// swap is declared an improvement or rolled back.
	RollbackWindows uint64
	// RegressionFrac rolls the swap back when the new design's power
	// over the watch windows exceeds the old design's by this
	// fraction.
	RegressionFrac float64
	// EscalateModes is the recovery ladder's escalation headroom
	// (RecoveryPolicy.EscalateModes): a candidate design is admitted
	// only if every traffic-carrying pair stays deliverable at
	// nominal+EscalateModes under the current permanent fault losses.
	EscalateModes int
}

// DefaultRules returns watermarks sized above the sampling noise of a
// ~500-packet window (TV noise floor ≈ 0.25 for a 16-node matrix).
func DefaultRules() Rules {
	return Rules{
		DriftHigh:            0.45,
		DriftLow:             0.30,
		LossHigh:             0.05,
		LossLow:              0.01,
		CooldownWindows:      3,
		MinResolveGapWindows: 2,
		RollbackWindows:      2,
		RegressionFrac:       0.02,
		EscalateModes:        2,
	}
}

// Validate checks the rule set.
func (r Rules) Validate() error {
	if r.DriftHigh <= 0 || r.DriftHigh > 2 {
		return fmt.Errorf("adapt: DriftHigh = %v, want in (0, 2]", r.DriftHigh)
	}
	if r.DriftLow < 0 || r.DriftLow > r.DriftHigh {
		return fmt.Errorf("adapt: DriftLow = %v, want in [0, DriftHigh=%v]", r.DriftLow, r.DriftHigh)
	}
	if r.LossHigh <= 0 || r.LossHigh > 1 {
		return fmt.Errorf("adapt: LossHigh = %v, want in (0, 1]", r.LossHigh)
	}
	if r.LossLow < 0 || r.LossLow > r.LossHigh {
		return fmt.Errorf("adapt: LossLow = %v, want in [0, LossHigh=%v]", r.LossLow, r.LossHigh)
	}
	if r.RegressionFrac < 0 {
		return fmt.Errorf("adapt: RegressionFrac = %v", r.RegressionFrac)
	}
	if r.EscalateModes < 0 {
		return fmt.Errorf("adapt: EscalateModes = %d", r.EscalateModes)
	}
	return nil
}

// Config configures a Controller.
type Config struct {
	// N is the node count of the observed stream.
	N int
	// WindowCycles is the observation window length.
	WindowCycles uint64
	// Seed drives the warm-started QAP re-solves (the per-trigger seed
	// is Seed+window so repeated triggers explore fresh tabu walks,
	// deterministically).
	Seed int64
	// QAPIters is the tabu-search budget per re-solve (0 = the
	// mapping package default, 40·N).
	QAPIters int
	// Alpha is the EWMA smoothing factor on the normalized window
	// matrices (0 < Alpha <= 1; default 0.5).
	Alpha float64
	// GuardDB is the chip-wide drive guard band assumed when checking
	// the escalation margin bound and estimating losses.
	GuardDB phys.Decibels
	// Lockstep makes window boundaries join any pending background
	// solve, so swap timing — and with it the decision log — is a
	// deterministic function of the input stream. Replay and tests
	// run lockstep; a live server may poll instead.
	Lockstep bool
	// Rules is the trigger rule engine (zero value = DefaultRules).
	Rules Rules
	// Power is the device configuration (zero value =
	// power.DefaultConfig(N)).
	Power power.Config
	// Topology is the power topology to design over (nil = 2-mode
	// distance-based halves partition, the paper's 2M_D shape).
	Topology *topo.Topology
	// Faults optionally injects a fault schedule: the loss estimator
	// checks each packet's deliverability against the active design's
	// margins, and the escalation margin bound subtracts the
	// permanent path losses active at the window boundary.
	Faults *fault.Schedule
	// Tel is the optional metric sink for the adapt.* family.
	Tel *telemetry.Registry
}

// withDefaults fills zero-valued fields.
func (c Config) withDefaults() Config {
	if c.WindowCycles == 0 {
		c.WindowCycles = 25_000
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Rules == (Rules{}) {
		c.Rules = DefaultRules()
	}
	if c.Power.N == 0 {
		c.Power = power.DefaultConfig(c.N)
	}
	return c
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

// defaultTopology is the 2-mode distance-based halves partition.
func defaultTopology(n int) (*topo.Topology, error) {
	return topo.DistanceModes(n, 2)
}
