// The adaptive controller: windowed observation, the trigger rule
// engine, re-solving with a warm-started QAP, the atomic design swap,
// and rollback-on-regression.

package adapt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/dynamic"
	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// marginTol mirrors fault.Checker's comparison tolerance.
const marginTol = 1e-9

// Controller is the online adaptation loop. One goroutine feeds it
// packets (Observe/Finish); any number of goroutines may concurrently
// call Active, Status or Log. The active design is behind an
// RCU-style atomic pointer: readers load it once and never observe a
// torn design.
type Controller struct {
	cfg  Config
	pcfg power.Config   // device configuration, power.DefaultConfig(N)
	topo *topo.Topology // the 2-mode distance-based halves partition

	active atomic.Pointer[Design]

	// met mirrors the internal tallies into telemetry (handles are
	// nil-safe until Instrument binds them).
	met struct {
		windows, triggers, resolves, swaps *telemetry.Counter
		rollbacks, suppressed, rejected    *telemetry.Counter
		generation, drift, lossRate        *telemetry.Gauge
		resolveMS                          *telemetry.Histogram
	}

	mu sync.Mutex // guards everything below

	window        uint64        // index of the open window
	cur           *trace.Matrix // open window's thread-space traffic
	ewma          *trace.Matrix // smoothed normalized traffic estimate
	drift         float64       // last closed window's drift estimate
	lossRate      float64       // last closed window's loss estimate
	offered, lost uint64        // open window's loss tallies

	armed         bool
	cooldownUntil uint64
	lastTrigger   uint64
	hasTriggered  bool

	gen     uint64
	pending *solveJob
	watch   *regressionWatch

	faultState *fault.State
	checker    *fault.Checker

	stats StatusCounts
	log   []Decision
}

// solveJob is one re-solve awaiting its settle at the window boundary
// after its trigger.
type solveJob struct {
	window uint64  // trigger window
	drift  float64 // drift estimate at trigger
	design *Design
	err    error
}

// regressionWatch prices the previous and current design on the
// observed traffic for rollbackWindows windows after a swap.
type regressionWatch struct {
	prev, next   *Design
	windows      uint64
	prevW, nextW float64 // accumulated watts
}

// StatusCounts are the controller's decision tallies.
type StatusCounts struct {
	Windows    uint64 `json:"windows"`
	Triggers   uint64 `json:"triggers"`
	Resolves   uint64 `json:"resolves"`
	Swaps      uint64 `json:"swaps"`
	Rollbacks  uint64 `json:"rollbacks"`
	Suppressed uint64 `json:"suppressed"`
	Rejected   uint64 `json:"rejected"`
}

// Status is a point-in-time controller summary (the /v1/adapt body).
type Status struct {
	Generation uint64       `json:"generation"`
	N          int          `json:"n"`
	Topology   string       `json:"topology"`
	Window     uint64       `json:"window"`
	Drift      float64      `json:"drift"`
	LossRate   float64      `json:"loss_rate"`
	Pending    bool         `json:"pending"`
	Counts     StatusCounts `json:"counts"`
	LogTail    []Decision   `json:"log_tail"`
}

// NewController validates the configuration, solves the initial
// uniform-weighted design (generation 0) and returns a ready loop.
func NewController(cfg Config) (*Controller, error) {
	if cfg.WindowCycles == 0 {
		cfg.WindowCycles = 25_000
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("adapt: N = %d, want >= 2", cfg.N)
	}
	if cfg.GuardDB < 0 {
		return nil, fmt.Errorf("adapt: GuardDB = %v", float64(cfg.GuardDB))
	}
	t, err := topo.DistanceModes(cfg.N, 2)
	if err != nil {
		return nil, fmt.Errorf("adapt: topology: %w", err)
	}
	pcfg := power.DefaultConfig(cfg.N)
	net, err := power.NewMNoC(pcfg, t, power.UniformWeighting(t.Modes))
	if err != nil {
		return nil, fmt.Errorf("adapt: solving initial design: %w", err)
	}
	c := &Controller{
		cfg:   cfg,
		pcfg:  pcfg,
		topo:  t,
		cur:   trace.NewMatrix(cfg.N),
		armed: true,
	}

	initial := &Design{
		Gen:        0,
		Net:        net,
		Assignment: mapping.Identity(cfg.N),
		Ref:        uniformReference(cfg.N),
	}
	c.active.Store(initial)

	if cfg.Faults != nil {
		if cfg.Faults.N != cfg.N {
			return nil, fmt.Errorf("adapt: fault schedule for %d nodes, stream for %d", cfg.Faults.N, cfg.N)
		}
		st, err := fault.NewState(cfg.Faults)
		if err != nil {
			return nil, err
		}
		c.faultState = st
		c.checker = fault.NewChecker(st, fault.NewBudget(net))
		c.checker.GuardDB = cfg.GuardDB
	}
	return c, nil
}

// Active returns the current design with one atomic load.
func (c *Controller) Active() *Design { return c.active.Load() }

// Instrument (re)binds the adapt.* metric family to a registry,
// eagerly creating every name so /metrics is complete from the first
// scrape. A nil registry detaches (the handles become nil-safe
// no-ops). Not safe to call concurrently with Observe.
func (c *Controller) Instrument(reg *telemetry.Registry) {
	c.met.windows = reg.Counter(MetricWindows)
	c.met.triggers = reg.Counter(MetricTriggers)
	c.met.resolves = reg.Counter(MetricResolves)
	c.met.swaps = reg.Counter(MetricSwaps)
	c.met.rollbacks = reg.Counter(MetricRollbacks)
	c.met.suppressed = reg.Counter(MetricSuppressed)
	c.met.rejected = reg.Counter(MetricRejected)
	c.met.generation = reg.Gauge(MetricGeneration)
	c.met.drift = reg.Gauge(MetricDrift)
	c.met.lossRate = reg.Gauge(MetricLossRate)
	c.met.resolveMS = reg.Histogram(MetricResolveMS, ResolveMSBuckets...)
	c.mu.Lock()
	c.met.generation.Set(float64(c.gen))
	c.mu.Unlock()
}

// Observe feeds one packet. Packets must arrive in cycle order; the
// controller closes every window boundary the packet crosses before
// accumulating it.
func (c *Controller) Observe(p trace.Packet) error {
	if int(p.Src) < 0 || int(p.Src) >= c.cfg.N || int(p.Dst) < 0 || int(p.Dst) >= c.cfg.N {
		return fmt.Errorf("adapt: packet endpoints (%d,%d) out of range [0,%d)", p.Src, p.Dst, c.cfg.N)
	}
	if p.Src == p.Dst {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for p.Cycle >= (c.window+1)*c.cfg.WindowCycles {
		c.closeWindow()
	}
	c.cur.Counts[p.Src][p.Dst] += float64(p.Flits)
	if c.checker != nil {
		d := c.active.Load()
		c.offered++
		src, dst := d.Assignment[p.Src], d.Assignment[p.Dst]
		if !c.checker.Check(p.Cycle, src, dst, c.checker.Budget.NominalMode(src, dst), 0).Delivered {
			c.lost++
		}
	}
	return nil
}

// Finish closes any trailing partial window and settles a pending
// re-solve, flushing its decision into the log.
func (c *Controller) Finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur.Total() > 0 || c.offered > 0 {
		c.closeWindow()
	}
	if c.pending != nil {
		c.finishSolve(c.window, c.pending)
		c.pending = nil
	}
}

// Replay feeds a whole recorded trace through the controller and
// finishes. perWindow, when non-nil, runs after every closed window
// (outside the controller lock) — replay pacing hooks in there.
func (c *Controller) Replay(tr *trace.Trace, perWindow func(window uint64)) error {
	if tr.N != c.cfg.N {
		return fmt.Errorf("adapt: trace for %d nodes, controller for %d", tr.N, c.cfg.N)
	}
	last := c.Windows()
	for i, p := range tr.Packets {
		if i > 0 && p.Cycle < tr.Packets[i-1].Cycle {
			return fmt.Errorf("adapt: packet %d out of cycle order", i)
		}
		if err := c.Observe(p); err != nil {
			return err
		}
		if perWindow != nil {
			if w := c.Windows(); w != last {
				perWindow(w)
				last = w
			}
		}
	}
	c.Finish()
	return nil
}

// Windows returns the number of closed windows.
func (c *Controller) Windows() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Windows
}

// Log returns a copy of the full decision log.
func (c *Controller) Log() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.log...)
}

// Status summarises the controller for the /v1/adapt endpoint. The
// log tail holds at most the last 20 decisions.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	tail := c.log
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	return Status{
		Generation: c.gen,
		N:          c.cfg.N,
		Topology:   c.topo.Name,
		Window:     c.window,
		Drift:      c.drift,
		LossRate:   c.lossRate,
		Pending:    c.pending != nil,
		Counts:     c.stats,
		LogTail:    append([]Decision(nil), tail...),
	}
}

// closeWindow advances the loop one observation window: update the
// estimators, settle any pending solve, run the regression watch, and
// let the rule engine decide. Callers hold c.mu.
func (c *Controller) closeWindow() {
	w := c.window
	c.stats.Windows++
	c.met.windows.Inc()

	// Estimator update.
	if c.cur.Total() > 0 {
		norm := c.cur.Normalized()
		if c.ewma == nil {
			c.ewma = norm
		} else {
			ewmaUpdate(c.ewma, norm, ewmaAlpha)
		}
	}
	active := c.active.Load()
	c.drift = 0
	if c.ewma != nil {
		c.drift = tvDistance(c.ewma, active.Ref)
	}
	c.lossRate = 0
	if c.offered > 0 {
		c.lossRate = float64(c.lost) / float64(c.offered)
	}
	c.met.drift.Set(c.drift)
	c.met.lossRate.Set(c.lossRate)

	// Settle the re-solve the previous window triggered.
	if c.pending != nil {
		c.finishSolve(w, c.pending)
		c.pending = nil
	}

	// Regression watch: price both designs on this window's traffic.
	if c.watch != nil && c.cur.Total() > 0 {
		c.watchWindow(w)
	}

	// Rule engine.
	if !c.armed && c.drift < driftLow && c.lossRate < lossLow {
		c.armed = true
	}
	if c.armed && (c.drift >= driftHigh || c.lossRate >= lossHigh) {
		c.maybeTrigger(w)
	}

	// Reset the window accumulators.
	for i := range c.cur.Counts {
		for j := range c.cur.Counts[i] {
			c.cur.Counts[i][j] = 0
		}
	}
	c.offered, c.lost = 0, 0
	c.window++
}

// maybeTrigger applies the suppression rules and, if clear, runs a
// re-solve. Callers hold c.mu.
func (c *Controller) maybeTrigger(w uint64) {
	suppress := func(why string) {
		c.stats.Suppressed++
		c.met.suppressed.Inc()
		c.logf(w, "suppressed (%s): drift %.3f loss %.3f", why, c.drift, c.lossRate)
	}
	switch {
	case c.watch != nil:
		suppress("regression watch active")
	case w < c.cooldownUntil:
		suppress(fmt.Sprintf("cooldown until window %d", c.cooldownUntil))
	case c.hasTriggered && w-c.lastTrigger < minResolveGapWindows:
		suppress(fmt.Sprintf("min re-solve gap %d windows", minResolveGapWindows))
	default:
		c.stats.Triggers++
		c.met.triggers.Inc()
		c.lastTrigger, c.hasTriggered = w, true
		c.armed = false
		c.logf(w, "trigger re-solve: drift %.3f loss %.3f", c.drift, c.lossRate)
		c.startSolve(w)
	}
}

// startSolve re-solves on a snapshot of the estimator state and holds
// the candidate pending: the next window boundary (or Finish) settles
// it, so the swap lands one window after its trigger. Callers hold
// c.mu.
func (c *Controller) startSolve(w uint64) {
	//mnoclint:allow determinism wall clock only feeds the adapt.resolve_ms telemetry histogram, never the decision log
	begin := time.Now()
	d, err := c.resolve(c.ewma.Clone(), c.active.Load(), w)
	c.met.resolveMS.Observe(float64(time.Since(begin)) / float64(time.Millisecond))
	c.pending = &solveJob{window: w, drift: c.drift, design: d, err: err}
}

// resolve is the re-solve: a tabu-search QAP re-mapping warm-started
// from the previous assignment (cost from the previous design's
// per-mode source power, seed Seed+window+1), then a sampled-weight
// splitter re-design for the re-mapped traffic. Deterministic in
// (obs, prev, window).
func (c *Controller) resolve(obs *trace.Matrix, prev *Design, window uint64) (*Design, error) {
	prob, err := mapping.NewProblem(obs.Counts, prev.Net.ModeCostMatrix())
	if err != nil {
		return nil, fmt.Errorf("adapt: re-solve QAP: %w", err)
	}
	seed := c.cfg.Seed + int64(window) + 1
	asg := prob.Taboo(prev.Assignment, mapping.TabooOptions{Iterations: c.cfg.QAPIters, Seed: seed})
	mapped, err := obs.Permute(asg)
	if err != nil {
		return nil, fmt.Errorf("adapt: re-solve: %w", err)
	}
	net, err := power.NewMNoC(c.pcfg, c.topo, power.SampledWeighting(mapped))
	if err != nil {
		return nil, fmt.Errorf("adapt: re-solve splitters: %w", err)
	}
	return &Design{
		Net:           net,
		Assignment:    asg,
		Ref:           obs,
		TriggerWindow: window,
	}, nil
}

// finishSolve settles a re-solve at window w: reject it on the
// escalation margin bound, or swap it in atomically and open the
// regression watch. Callers hold c.mu.
func (c *Controller) finishSolve(w uint64, job *solveJob) {
	c.stats.Resolves++
	c.met.resolves.Inc()
	if job.err != nil {
		c.logf(w, "re-solve failed (trigger window %d): %v", job.window, job.err)
		return
	}
	if src, dst, short := c.marginViolation(w, job.design); short > 0 {
		c.stats.Rejected++
		c.met.rejected.Inc()
		c.logf(w, "reject candidate (trigger window %d): escalation margin bound violated at pair (%d,%d), %.2f dB short",
			job.window, src, dst, float64(short))
		return
	}
	prev := c.active.Load()
	c.gen++
	d := job.design
	d.Gen = c.gen
	c.active.Store(d)
	c.stats.Swaps++
	c.met.swaps.Inc()
	c.met.generation.Set(float64(c.gen))
	c.cooldownUntil = w + cooldownWindows
	if c.checker != nil {
		c.checker = fault.NewChecker(c.faultState, fault.NewBudget(d.Net))
		c.checker.GuardDB = c.cfg.GuardDB
	}
	c.watch = &regressionWatch{prev: prev, next: d}
	c.logf(w, "swap -> gen %d (trigger window %d, drift %.3f)", c.gen, job.window, job.drift)
}

// marginViolation checks the escalation margin bound on a candidate:
// every traffic-carrying pair must stay deliverable with the recovery
// ladder's headroom (nominal+EscalateModes of the default recovery
// policy, plus the guard band)
// against the permanent path losses active at the window boundary.
// It returns the worst violating pair (cores) and its shortfall in
// dB, or a zero shortfall when the bound holds.
func (c *Controller) marginViolation(w uint64, cand *Design) (src, dst int, shortDB phys.Decibels) {
	budget := fault.NewBudget(cand.Net)
	modes := budget.Modes()
	escalate := dynamic.DefaultRecoveryPolicy().EscalateModes
	cycle := w * c.cfg.WindowCycles
	for ts := range cand.Ref.Counts {
		for td, v := range cand.Ref.Counts[ts] {
			if v == 0 || ts == td {
				continue
			}
			s, d := cand.Assignment[ts], cand.Assignment[td]
			var permDB phys.Decibels
			if c.faultState != nil {
				loss := c.faultState.Loss(cycle, s, d)
				if loss.Fatal {
					continue // no re-solve fixes a dead device
				}
				permDB = loss.PermanentDB
			}
			maxMode := budget.NominalMode(s, d) + escalate
			if maxMode > modes-1 {
				maxMode = modes - 1
			}
			slack := budget.MarginDB(s, d, maxMode) + c.cfg.GuardDB - permDB
			if slack < -marginTol && -slack > shortDB {
				src, dst, shortDB = s, d, -slack
			}
		}
	}
	return src, dst, shortDB
}

// watchWindow accumulates one regression-watch window: both designs
// priced on the observed window traffic, roll back when the new
// design regresses past regressionFrac. Callers hold c.mu.
func (c *Controller) watchWindow(w uint64) {
	wt := c.watch
	cycles := float64(c.cfg.WindowCycles)
	prevB, err1 := wt.prev.EvaluatePower(c.cur, cycles)
	nextB, err2 := wt.next.EvaluatePower(c.cur, cycles)
	if err1 != nil || err2 != nil {
		// Evaluation only fails on malformed inputs, which Observe
		// already rejects; drop the watch rather than guessing.
		c.watch = nil
		return
	}
	wt.prevW += prevB.TotalWatts()
	wt.nextW += nextB.TotalWatts()
	wt.windows++
	if wt.windows < rollbackWindows {
		return
	}
	c.watch = nil
	if wt.nextW > wt.prevW*(1+regressionFrac) {
		c.gen++
		rolled := &Design{
			Gen:           c.gen,
			Net:           wt.prev.Net,
			Assignment:    wt.prev.Assignment,
			Ref:           wt.prev.Ref,
			TriggerWindow: wt.prev.TriggerWindow,
		}
		c.active.Store(rolled)
		c.stats.Rollbacks++
		c.met.rollbacks.Inc()
		c.met.generation.Set(float64(c.gen))
		c.cooldownUntil = w + cooldownWindows
		if c.checker != nil {
			c.checker = fault.NewChecker(c.faultState, fault.NewBudget(rolled.Net))
			c.checker.GuardDB = c.cfg.GuardDB
		}
		regress := 0.0
		if wt.prevW > 0 {
			regress = (wt.nextW/wt.prevW - 1) * 100
		}
		c.logf(w, "rollback -> gen %d (gen %d regressed %.1f%% vs gen %d over %d windows)",
			c.gen, wt.next.Gen, regress, wt.prev.Gen, wt.windows)
		return
	}
	c.logf(w, "keep gen %d (%.4g W vs %.4g W over %d windows)", wt.next.Gen, wt.nextW/float64(wt.windows), wt.prevW/float64(wt.windows), wt.windows)
}

func (c *Controller) logf(w uint64, format string, args ...any) {
	c.log = append(c.log, Decision{Window: w, What: fmt.Sprintf(format, args...)})
}
