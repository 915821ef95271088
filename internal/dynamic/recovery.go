// Graceful degradation under device faults: a rule-based recovery
// controller layered on the same epoch structure as the power
// controller in this package. Detection comes from package fault (a
// Checker over the solved power topology's margins); the controller's
// escalation ladder is, cheapest first:
//
//  1. retry — transient drops and thermal epochs clear on their own;
//  2. power escalation — re-drive the packet one mode higher, which the
//     Appendix-A design guarantees delivers 10·log10(α_{m(d)}/α_m) dB
//     of extra margin at that mode's (higher) electrical cost;
//  3. guard-band resize — when an epoch shows a sustained shortfall
//     rate, raise the chip-wide drive uplift (charged on every
//     subsequent transmission, the same trade package variation prices
//     at design time);
//  4. thread migration — move threads off cores with dead transmitters
//     or receivers, swapping with the least-traffic healthy thread;
//  5. topology re-solve — as a last resort, re-run the splitter solver
//     with the dead receivers excluded (power.MNoC.Resolve), shrinking
//     every mode's injected power ("more is less" in reverse).
//
// Every action is logged with its trigger cycle; all decisions are
// deterministic functions of (trace, schedule, policy), so two runs
// with identical inputs produce identical results byte for byte.

package dynamic

import (
	"fmt"
	"math"

	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/trace"
	"mnoc/internal/variation"
)

// RecoveryPolicy tunes the graceful-degradation controller.
type RecoveryPolicy struct {
	// EpochCycles is the interval at which epoch-level actions (guard
	// resize, migration, re-solve) are considered.
	EpochCycles uint64
	// MaxAttempts bounds transmissions per packet, the first included.
	// 1 disables retry entirely (the fault-oblivious baseline).
	MaxAttempts int
	// RetryBackoffCycles is the wait between learning of a failure and
	// re-injecting. Retries always move to a later cycle, so transient
	// per-packet drops re-roll.
	RetryBackoffCycles uint64
	// EscalateModes caps power escalation at nominal+EscalateModes
	// (clamped to the topology's highest mode). 0 retries at the
	// nominal mode only.
	EscalateModes int
	// RetryBoostDB is the extra LED drive uplift added per retry (on top
	// of mode escalation, capped at RetryBoostMaxDB) — the power-
	// escalation rung for destinations already in the highest mode. The
	// boosted attempts are charged at the boosted power.
	RetryBoostDB    phys.Decibels
	RetryBoostMaxDB phys.Decibels
	// InitialGuardDB pre-loads the chip-wide guard band, typically from
	// a fabrication-variation Monte-Carlo (see VariationGuardDB).
	InitialGuardDB phys.Decibels
	// GuardStepDB/GuardMaxDB shape the guard-band ladder: when an
	// epoch's shortfall rate exceeds GuardTriggerFrac, the chip-wide
	// drive uplift grows by GuardStepDB, up to GuardMaxDB. Every
	// subsequent transmission pays the 10^(guard/10) source-power
	// factor.
	GuardStepDB      phys.Decibels
	GuardMaxDB       phys.Decibels
	GuardTriggerFrac float64
	// MigrateOffDead moves threads off cores whose transmitter or
	// receiver has died, swapping with the epoch's least-traffic
	// healthy thread.
	MigrateOffDead bool
	// ReplanOnDeath re-solves the splitter designs with dead receivers
	// excluded whenever the set of dead receivers grows.
	ReplanOnDeath bool
}

// DefaultRecoveryPolicy is the full escalation ladder.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		EpochCycles:        25_000,
		MaxAttempts:        4,
		RetryBackoffCycles: 4,
		EscalateModes:      2,
		RetryBoostDB:       1.0,
		RetryBoostMaxDB:    3.0,
		GuardStepDB:        0.5,
		GuardMaxDB:         3.0,
		GuardTriggerFrac:   0.01,
		MigrateOffDead:     true,
		ReplanOnDeath:      true,
	}
}

// ObliviousPolicy is the fault-oblivious baseline: one attempt at the
// nominal mode, no recovery of any kind.
func ObliviousPolicy() RecoveryPolicy {
	return RecoveryPolicy{EpochCycles: 100_000, MaxAttempts: 1}
}

// VariationGuardDB sizes an initial guard band from a fabrication-
// variation Monte-Carlo over every source's splitter chain: the largest
// per-source guard band that restores the target yield (the design-time
// half of guard sizing; the runtime controller then grows the band
// further under observed shortfalls).
func VariationGuardDB(net *power.MNoC, p variation.Params) (phys.Decibels, error) {
	worst := phys.Decibels(0)
	for src := 0; src < net.Cfg.N; src++ {
		r, err := variation.MonteCarlo(net.Designs[src], net.Topology.ModeOf[src], net.Cfg.Splitter.PminUW, p)
		if err != nil {
			return 0, fmt.Errorf("dynamic: sizing guard for source %d: %w", src, err)
		}
		if r.GuardBandDB > worst {
			worst = r.GuardBandDB
		}
	}
	return worst, nil
}

// Validate checks the policy.
func (p RecoveryPolicy) Validate() error {
	if p.EpochCycles == 0 {
		return fmt.Errorf("dynamic: zero recovery epoch")
	}
	if p.MaxAttempts < 1 {
		return fmt.Errorf("dynamic: MaxAttempts = %d", p.MaxAttempts)
	}
	if p.EscalateModes < 0 || p.GuardStepDB < 0 || p.GuardMaxDB < 0 || p.GuardTriggerFrac < 0 ||
		p.RetryBoostDB < 0 || p.RetryBoostMaxDB < 0 || p.InitialGuardDB < 0 {
		return fmt.Errorf("dynamic: negative recovery knobs in %+v", p)
	}
	return nil
}

// Action is one logged recovery decision.
type Action struct {
	Cycle uint64
	What  string
}

// RecoveryEpoch is one epoch of a degradation run.
type RecoveryEpoch struct {
	Epoch              int
	Offered, Delivered uint64
	GuardDB            phys.Decibels
	PowerW             float64
}

// FaultResult summarises a degradation run.
type FaultResult struct {
	// Offered counts packets presented to the network; Delivered those
	// that arrived; Lost the rest. Delivered+Lost = Offered.
	Offered, Delivered, Lost uint64
	// Retries counts re-transmissions; Escalations those driven above
	// the nominal mode.
	Retries, Escalations uint64
	// GuardResizes / Migrations / Replans count epoch-level actions.
	GuardResizes, Migrations, Replans int
	FinalGuardDB                      phys.Decibels
	// RuntimeCycles covers the trace horizon and every retry tail.
	RuntimeCycles uint64
	// AvgPowerW is the run's average network power (source + O/E +
	// electrical buffering), retries and guard uplift included.
	AvgPowerW float64
	Epochs    []RecoveryEpoch
	Actions   []Action
}

// DeliveredFrac is the run's reliability: Delivered/Offered (1 for an
// idle trace).
func (r *FaultResult) DeliveredFrac() float64 {
	if r.Offered == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Offered)
}

// RunWithFaults replays a thread-indexed packet trace on the designed
// network under a fault schedule, applying the policy's recovery
// ladder. The trace's packets must be cycle-sorted.
func RunWithFaults(net *power.MNoC, tr *trace.Trace, initial mapping.Assignment, sched *fault.Schedule, pol RecoveryPolicy) (*FaultResult, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if tr.N != net.Cfg.N {
		return nil, fmt.Errorf("dynamic: trace for %d nodes, network for %d", tr.N, net.Cfg.N)
	}
	if sched.N != net.Cfg.N {
		return nil, fmt.Errorf("dynamic: schedule for %d nodes, network for %d", sched.N, net.Cfg.N)
	}
	if err := initial.Validate(tr.N); err != nil {
		return nil, err
	}
	st, err := fault.NewState(sched)
	if err != nil {
		return nil, err
	}
	n := net.Cfg.N
	r := &runState{
		pol:     pol,
		net:     net,
		curNet:  net,
		checker: fault.NewChecker(st, fault.NewBudget(net)),
		cur:     append(mapping.Assignment(nil), initial...),
		alive:   make([]bool, n),
		res:     &FaultResult{},
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	r.checker.GuardDB = pol.InitialGuardDB
	r.rebuildReach()

	epochEnd := pol.EpochCycles
	epochTraffic := make([]float64, n) // per-thread flits this epoch
	var epochOffered, epochDelivered, epochShortfalls uint64
	var epochEnergyStart float64
	epoch := 0

	closeEpoch := func(at uint64) {
		cycles := float64(pol.EpochCycles)
		energy := r.energyUWCycles + r.elecUWCycles() - epochEnergyStart
		r.res.Epochs = append(r.res.Epochs, RecoveryEpoch{
			Epoch: epoch, Offered: epochOffered, Delivered: epochDelivered,
			GuardDB: r.checker.GuardDB,
			PowerW:  energy / cycles / phys.Watt,
		})
		r.epochActions(at, epoch, epochOffered, epochShortfalls, epochTraffic)
		epoch++
		epochOffered, epochDelivered, epochShortfalls = 0, 0, 0
		for i := range epochTraffic {
			epochTraffic[i] = 0
		}
		epochEnergyStart = r.energyUWCycles + r.elecUWCycles()
	}

	for i, p := range tr.Packets {
		if i > 0 && p.Cycle < tr.Packets[i-1].Cycle {
			return nil, fmt.Errorf("dynamic: packet %d out of cycle order", i)
		}
		for p.Cycle >= epochEnd {
			closeEpoch(epochEnd)
			epochEnd += pol.EpochCycles
		}
		src, dst := int(p.Src), int(p.Dst)
		if src == dst {
			continue
		}
		epochTraffic[src] += float64(p.Flits)
		epochTraffic[dst] += float64(p.Flits)
		delivered, shortfalls := r.deliver(p.Cycle, src, dst, int(p.Flits))
		epochOffered++
		epochShortfalls += shortfalls
		if delivered {
			epochDelivered++
		}
	}
	// Flush epochs up to the trace horizon so trailing actions land.
	for epochEnd <= tr.Cycles {
		closeEpoch(epochEnd)
		epochEnd += pol.EpochCycles
	}
	if epochOffered > 0 {
		closeEpoch(tr.Cycles)
	}

	res := r.res
	res.Lost = res.Offered - res.Delivered
	res.FinalGuardDB = r.checker.GuardDB
	res.RuntimeCycles = tr.Cycles
	if r.lastCycle >= res.RuntimeCycles {
		res.RuntimeCycles = r.lastCycle + 1
	}
	cycles := float64(res.RuntimeCycles)
	if cycles > 0 {
		res.AvgPowerW = (r.energyUWCycles + r.elecUWCycles()) / cycles / phys.Watt
	}
	return res, nil
}

// runState carries the controller's mutable state through a run.
type runState struct {
	pol     RecoveryPolicy
	net     *power.MNoC // the pristine design (re-solves start from it)
	curNet  *power.MNoC // current (possibly re-solved) design
	checker *fault.Checker
	cur     mapping.Assignment
	alive   []bool
	// reach[src][mode] counts live receivers detecting mode m light.
	reach [][]int

	energyUWCycles float64 // source + O/E energy
	elecPJ         float64 // endpoint buffering energy
	lastCycle      uint64

	res *FaultResult
}

// rebuildReach recomputes the O/E reach table from the current alive
// set (dead receivers are dark: a re-solve removes their taps, and even
// before one their detection draws no meaningful power).
func (r *runState) rebuildReach() {
	n := r.net.Cfg.N
	modes := r.net.Topology.Modes
	r.reach = make([][]int, n)
	for s := 0; s < n; s++ {
		row := make([]int, modes)
		for d, mode := range r.net.Topology.ModeOf[s] {
			if d == s || !r.alive[d] {
				continue
			}
			for hi := mode; hi < modes; hi++ {
				row[hi]++
			}
		}
		r.reach[s] = row
	}
}

// elecUWCycles converts the accumulated buffering energy to µW·cycles.
func (r *runState) elecUWCycles() float64 {
	// 1 pJ over one 5 GHz cycle is 1000/ClockGHz... keep it simple:
	// pJ → µW·cycles is pJ · ClockGHz · 1e-3? No: 1 pJ = 1e-6 µJ;
	// 1 µW·cycle = 1 µW · (1/ClockGHz) ns = 1e-9/ClockGHz µJ · 1e6 =
	// 1e-3/ClockGHz µJ. So 1 pJ = 1e-6 µJ = ClockGHz·1e-3 µW·cycles.
	return r.elecPJ * phys.ClockGHz * 1e-3
}

// charge accounts one transmission attempt's energy: the QD LED driver
// at the drive mode (guard band and per-retry boost applied to the
// optical target), every reached live receiver's O/E, and endpoint
// buffering.
func (r *runState) charge(src, mode, flits int, upliftDB phys.Decibels) {
	guard := math.Pow(10, float64(r.checker.GuardDB+upliftDB)/10)
	opt := r.curNet.Designs[src].ModePowerUW[mode].Scale(guard)
	srcUW := r.curNet.Cfg.QDLED.ElectricalPower(opt)
	oeUW := float64(r.reach[src][mode]) * float64(r.curNet.Cfg.PD.OEPowerUW())
	r.energyUWCycles += float64(flits) * (float64(srcUW) + oeUW)
	r.elecPJ += float64(flits) * 2 * r.curNet.Cfg.Elec.BufferPJPerFlit
}

// deliver runs one packet through the retry/escalation ladder. It
// returns whether the packet arrived and how many attempts failed on a
// power shortfall (the guard-band trigger).
func (r *runState) deliver(cycle uint64, srcThread, dstThread, flits int) (bool, uint64) {
	src, dst := r.cur[srcThread], r.cur[dstThread]
	r.res.Offered++
	nominal := r.checker.Budget.NominalMode(src, dst)
	maxMode := min(nominal+r.pol.EscalateModes, r.checker.Budget.Modes()-1)
	mode := nominal
	at := cycle
	var shortfalls uint64
	for attempt := 1; ; attempt++ {
		uplift := phys.Decibels(math.Min(float64(attempt-1)*float64(r.pol.RetryBoostDB), float64(r.pol.RetryBoostMaxDB)))
		r.charge(src, mode, flits, uplift)
		if at > r.lastCycle {
			r.lastCycle = at
		}
		v := r.checker.Check(at, src, dst, mode, uplift)
		if v.Delivered {
			r.res.Delivered++
			return true, shortfalls
		}
		if v.ShortfallDB > 0 {
			shortfalls++
		}
		if v.Fatal || attempt >= r.pol.MaxAttempts {
			return false, shortfalls
		}
		r.res.Retries++
		if v.ShortfallDB > 0 && mode < maxMode {
			mode++
			r.res.Escalations++
		}
		// +1 guarantees the retry lands on a fresh cycle (fresh drop
		// roll) even with zero configured backoff.
		at += r.pol.RetryBackoffCycles + 1
	}
}

// epochActions applies the epoch-level recovery rules at an epoch
// boundary.
func (r *runState) epochActions(at uint64, epoch int, offered, shortfalls uint64, traffic []float64) {
	pol := r.pol
	// Guard-band resize on sustained shortfall pressure.
	if pol.GuardStepDB > 0 && offered > 0 {
		frac := float64(shortfalls) / float64(offered)
		if frac > pol.GuardTriggerFrac && r.checker.GuardDB < pol.GuardMaxDB {
			r.checker.GuardDB = phys.Decibels(math.Min(float64(r.checker.GuardDB+pol.GuardStepDB), float64(pol.GuardMaxDB)))
			r.res.GuardResizes++
			r.log(at, fmt.Sprintf("epoch %d: shortfall rate %.3f, guard band -> %.2f dB", epoch, frac, r.checker.GuardDB))
		}
	}
	state := r.checker.State
	deadTx := state.DeadSources(at)
	deadRx := state.DeadReceivers(at)
	// Thread migration off dead endpoints.
	if pol.MigrateOffDead {
		r.migrate(at, epoch, deadTx, deadRx, traffic)
	}
	// Topology re-solve excluding newly dead receivers.
	if pol.ReplanOnDeath {
		changed := false
		for i := range r.alive {
			if r.alive[i] && deadRx[i] {
				r.alive[i] = false
				changed = true
			}
		}
		if changed {
			resolved, err := r.net.Resolve(r.alive)
			if err != nil {
				// Keep the old design; delivery checks still use the
				// fault state, so correctness is unaffected.
				r.log(at, fmt.Sprintf("epoch %d: re-solve failed: %v", epoch, err))
				return
			}
			r.curNet = resolved
			guard := r.checker.GuardDB
			r.checker = fault.NewChecker(state, fault.NewBudget(resolved))
			r.checker.GuardDB = guard
			r.rebuildReach()
			r.res.Replans++
			excluded := 0
			for _, a := range r.alive {
				if !a {
					excluded++
				}
			}
			r.log(at, fmt.Sprintf("epoch %d: re-solved splitters, %d receivers excluded", epoch, excluded))
		}
	}
}

// migrate swaps threads off dead cores, pairing each with the healthy
// core currently hosting the least-traffic thread.
func (r *runState) migrate(at uint64, epoch int, deadTx, deadRx []bool, traffic []float64) {
	dead := func(core int) bool { return deadTx[core] || deadRx[core] }
	coreOf := r.cur
	for t := 0; t < len(coreOf); t++ {
		if !dead(coreOf[t]) || traffic[t] == 0 {
			continue
		}
		// Least-traffic thread on a healthy core, excluding t itself.
		best, bestTraffic := -1, math.Inf(1)
		for u := 0; u < len(coreOf); u++ {
			if u == t || dead(coreOf[u]) {
				continue
			}
			if traffic[u] < bestTraffic {
				best, bestTraffic = u, traffic[u]
			}
		}
		if best < 0 || bestTraffic >= traffic[t] {
			continue // nowhere better to go
		}
		from, to := coreOf[t], coreOf[best]
		coreOf[t], coreOf[best] = to, from
		r.res.Migrations++
		r.log(at, fmt.Sprintf("epoch %d: migrated thread %d core %d -> %d (swap with thread %d)", epoch, t, from, to, best))
	}
}

func (r *runState) log(cycle uint64, what string) {
	r.res.Actions = append(r.res.Actions, Action{Cycle: cycle, What: what})
}
