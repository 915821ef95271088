// Runtime fault evaluation: State answers "which faults are active at
// cycle c and what do they cost this src→dst transmission", Budget
// answers "how much optical margin does the solved power topology give
// that transmission at a given drive mode", and Checker combines the
// two into the delivery Verdict.

package fault

import (
	"math"

	"mnoc/internal/phys"
	"mnoc/internal/power"
)

// marginTol absorbs floating-point error at the exact-Pmin boundary
// (a fault-free design delivers exactly Pmin in the nominal mode).
const marginTol = 1e-9

// State tracks a schedule's faults for fast per-transmission queries.
// It is immutable after construction and safe for concurrent readers.
type State struct {
	sched  *Schedule
	bySrc  [][]int // fault indices affecting transmissions from a source
	byDst  [][]int // fault indices affecting deliveries to a destination
	global []int   // chip-wide (thermal) fault indices
}

// NewState validates and indexes a schedule.
func NewState(s *Schedule) (*State, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	st := &State{
		sched: s,
		bySrc: make([][]int, s.N),
		byDst: make([][]int, s.N),
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case LEDDeath, LEDDegrade, TapDrift, WaveguideBreak:
			st.bySrc[f.Node] = append(st.bySrc[f.Node], i)
		case ReceiverDeath, ReceiverBleach:
			st.byDst[f.Node] = append(st.byDst[f.Node], i)
		case ThermalDrift:
			st.global = append(st.global, i)
		}
	}
	return st, nil
}

// PathLoss is the fault-induced loss on one src→dst transmission.
type PathLoss struct {
	// PermanentDB / TransientDB split the extra loss by whether it will
	// clear on its own (thermal epochs and other bounded-duration
	// faults are transient; device damage is permanent).
	PermanentDB phys.Decibels
	TransientDB phys.Decibels
	// Fatal is set when no drive power delivers (dead device, severed
	// guide between the endpoints).
	Fatal bool
}

// TotalDB is the combined extra loss.
func (p PathLoss) TotalDB() phys.Decibels { return p.PermanentDB + p.TransientDB }

// Loss evaluates the active faults on a src→dst transmission at a
// cycle.
func (st *State) Loss(cycle uint64, src, dst int) PathLoss {
	var out PathLoss
	apply := func(f Fault) {
		if !f.ActiveAt(cycle) {
			return
		}
		switch f.Kind {
		case LEDDeath, ReceiverDeath:
			out.Fatal = true
		case WaveguideBreak:
			if breakSevers(src, dst, f.Aux) {
				out.Fatal = true
			}
		case TapDrift:
			if f.Aux != dst {
				return
			}
			fallthrough
		case LEDDegrade, ReceiverBleach, ThermalDrift:
			if f.DurationCycles != 0 {
				out.TransientDB += f.SeverityDB
			} else {
				out.PermanentDB += f.SeverityDB
			}
		}
	}
	for _, i := range st.bySrc[src] {
		apply(st.sched.Faults[i])
	}
	for _, i := range st.byDst[dst] {
		apply(st.sched.Faults[i])
	}
	for _, i := range st.global {
		apply(st.sched.Faults[i])
	}
	return out
}

// breakSevers reports whether a break between nodes seg and seg+1 lies
// between src and dst on the serpentine.
func breakSevers(src, dst, seg int) bool {
	if src < dst {
		return src <= seg && seg < dst
	}
	return dst <= seg && seg < src
}

// Dropped reports whether the individual packet injected at cycle on
// src→dst is corrupted by the schedule's transient drop process. The
// decision is a pure hash of (seed, cycle, src, dst), so a retry at a
// different cycle re-rolls while identical runs reproduce exactly.
func (st *State) Dropped(cycle uint64, src, dst int) bool {
	r := st.sched.DropRate
	if r <= 0 {
		return false
	}
	h := splitmix64(st.sched.DropSeed ^ mix3(cycle, src, dst))
	return float64(h>>11)/(1<<53) < r
}

// DeadSources returns, per node, whether its transmitter is
// permanently unable to deliver anything at the given cycle (LED death,
// or its waveguide severed on both sides of the source).
func (st *State) DeadSources(cycle uint64) []bool {
	dead := make([]bool, st.sched.N)
	for node := range dead {
		for _, i := range st.bySrc[node] {
			f := st.sched.Faults[i]
			if f.Kind == LEDDeath && f.ActiveAt(cycle) {
				dead[node] = true
			}
		}
	}
	return dead
}

// DeadReceivers returns, per node, whether its receiver stack is dead
// at the given cycle.
func (st *State) DeadReceivers(cycle uint64) []bool {
	dead := make([]bool, st.sched.N)
	for node := range dead {
		for _, i := range st.byDst[node] {
			f := st.sched.Faults[i]
			if f.Kind == ReceiverDeath && f.ActiveAt(cycle) {
				dead[node] = true
			}
		}
	}
	return dead
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func mix3(cycle uint64, src, dst int) uint64 {
	return splitmix64(cycle) ^ splitmix64(uint64(src)<<32|uint64(uint32(dst)))
}

// Budget holds the per-pair optical margins of a solved power
// topology. The Appendix-A design delivers exactly α_{m(d)}/α_m · Pmin
// to destination d when the source drives mode m ≥ m(d), so the margin
// of a transmission in dB is 10·log10(α_{m(d)}/α_m) — zero at the
// nominal mode, positive under power escalation.
type Budget struct {
	modes   int
	modeOf  [][]int
	alphaDB [][]phys.Decibels // alphaDB[src][m] = 10·log10(α_m)
}

// NewBudget derives the margin table from a designed network.
func NewBudget(net *power.MNoC) *Budget {
	n := net.Cfg.N
	b := &Budget{
		modes:   net.Topology.Modes,
		modeOf:  net.Topology.ModeOf,
		alphaDB: make([][]phys.Decibels, n),
	}
	for s := 0; s < n; s++ {
		al := net.Designs[s].Alphas
		db := make([]phys.Decibels, len(al))
		for m, a := range al {
			db[m] = phys.Decibels(10 * math.Log10(a))
		}
		b.alphaDB[s] = db
	}
	return b
}

// Modes is the topology's mode count.
func (b *Budget) Modes() int { return b.modes }

// NominalMode is the lowest mode in which src reaches dst.
func (b *Budget) NominalMode(src, dst int) int { return b.modeOf[src][dst] }

// MarginDB is the delivery margin of a src→dst transmission driven at
// the given mode. Negative when the mode is below dst's nominal mode.
func (b *Budget) MarginDB(src, dst, mode int) phys.Decibels {
	return b.alphaDB[src][b.modeOf[src][dst]] - b.alphaDB[src][mode]
}

// Checker is the delivery decision: it combines a fault State, a
// power-topology Budget and the current guard band into a Verdict per
// transmission. GuardDB models the per-mode drive-current uplift a real
// controller programs into the QD LED drivers (Section 3.2.2) —
// recovery raises it at a power cost of 10^(GuardDB/10) on every
// transmission.
type Checker struct {
	State   *State
	Budget  *Budget
	GuardDB phys.Decibels
}

// NewChecker assembles a checker with no guard band.
func NewChecker(st *State, b *Budget) *Checker {
	return &Checker{State: st, Budget: b}
}

// Verdict is the checker's decision on one transmission.
type Verdict struct {
	// Delivered reports that the destination detected at least Pmin.
	Delivered bool
	// Fatal marks a failure no drive power fixes (dead device, severed
	// guide).
	Fatal bool
	// ShortfallDB is how far below the detection threshold the
	// delivered power fell. It is 0 when the failure is not a power
	// shortfall: a dropped packet or a fatal fault.
	ShortfallDB phys.Decibels
}

// Check decides delivery of a src→dst transmission injected at cycle
// and driven at mode, crediting a per-transmission drive uplift in dB
// (the retry-boost rung of the recovery ladder, where a failed packet
// is re-driven at higher LED current without touching the chip-wide
// guard band; the caller charges the matching power). Pass
// Budget.NominalMode and no uplift for the fault-oblivious decision.
func (c *Checker) Check(cycle uint64, src, dst, mode int, upliftDB phys.Decibels) Verdict {
	if c.State.Dropped(cycle, src, dst) {
		return Verdict{}
	}
	loss := c.State.Loss(cycle, src, dst)
	if loss.Fatal {
		return Verdict{Fatal: true}
	}
	margin := c.Budget.MarginDB(src, dst, mode) + c.GuardDB + upliftDB - loss.TotalDB()
	if margin < -marginTol {
		return Verdict{ShortfallDB: -margin}
	}
	return Verdict{Delivered: true}
}
