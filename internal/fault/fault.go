// Package fault models runtime device faults in an mNoC crossbar and
// the machinery to reason about them: a taxonomy of permanent and
// transient fault events, a deterministic seeded injector that turns
// fault rates into a cycle-stamped schedule, and a runtime State/Checker
// pair that decides — against a solved power topology's per-mode power
// budget — whether a given transmission still delivers at least Pmin to
// its destination.
//
// The paper's power topologies size every splitter tap so the
// destination receives exactly Pmin in its assigned mode; package
// variation shows fabrication error alone erodes that margin. This
// package models the *runtime* half of the reliability story (PROTEUS-
// style self-adaptation under loss): QD LEDs die or lose efficiency,
// chromophore receivers bleach, fabricated taps drift out of their
// guard band, waveguides break, thermal epochs add broadband loss, and
// individual packets are corrupted. Checker decides delivery; recovery
// lives in package dynamic, and package adapt reads the same decision
// for its loss estimate.
package fault

import (
	"fmt"
	"math"
	"sort"

	"mnoc/internal/phys"
)

// Kind enumerates the fault taxonomy (see docs/FAULTS.md).
type Kind int

const (
	// LEDDeath kills node's QD LED: nothing it transmits is ever
	// delivered. Permanent.
	LEDDeath Kind = iota
	// LEDDegrade reduces node's QD LED output by SeverityDB on every
	// transmission (ageing / efficiency droop).
	LEDDegrade
	// ReceiverDeath kills node's chromophore/photodetector stack:
	// nothing sent to it is ever detected. Permanent.
	ReceiverDeath
	// ReceiverBleach raises node's effective detection threshold by
	// SeverityDB (chromophore photobleaching): packets to it arrive
	// SeverityDB short.
	ReceiverBleach
	// TapDrift moves the splitter tap for destination Aux on source
	// Node's waveguide beyond its guard band: Node→Aux transmissions
	// arrive SeverityDB short.
	TapDrift
	// WaveguideBreak severs source Node's waveguide between nodes Aux
	// and Aux+1: destinations on the far side of the break from the
	// source become unreachable.
	WaveguideBreak
	// ThermalDrift is a chip-wide transient epoch adding SeverityDB of
	// loss to every optical path while active (hotspot detuning the
	// chromophore absorption peaks).
	ThermalDrift

	numKinds
)

var kindNames = [...]string{
	LEDDeath:       "led-death",
	LEDDegrade:     "led-degrade",
	ReceiverDeath:  "rx-death",
	ReceiverBleach: "rx-bleach",
	TapDrift:       "tap-drift",
	WaveguideBreak: "guide-break",
	ThermalDrift:   "thermal",
}

// String returns the schedule-file spelling of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindFromString parses a schedule-file kind name.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Fault is one scheduled fault event.
type Fault struct {
	// Cycle is the onset cycle.
	Cycle uint64
	Kind  Kind
	// Node is the primary node: the transmitting source for LED and
	// waveguide faults, the receiving destination for receiver faults.
	// Ignored (-1) for ThermalDrift.
	Node int
	// Aux is the secondary index: the drifted destination for TapDrift,
	// the break segment for WaveguideBreak (the guide is severed
	// between Aux and Aux+1). -1 otherwise.
	Aux int
	// SeverityDB is the extra optical loss the fault charges, in dB.
	// Ignored by the fatal kinds.
	SeverityDB phys.Decibels
	// DurationCycles bounds a transient fault; 0 means permanent.
	DurationCycles uint64
}

// ActiveAt reports whether the fault is in effect at the given cycle.
func (f Fault) ActiveAt(cycle uint64) bool {
	if cycle < f.Cycle {
		return false
	}
	return f.DurationCycles == 0 || cycle < f.Cycle+f.DurationCycles
}

// Validate checks the fault against an n-node system.
func (f Fault) Validate(n int) error {
	if f.Kind < 0 || f.Kind >= numKinds {
		return fmt.Errorf("fault: kind %d out of range", int(f.Kind))
	}
	if !(f.SeverityDB >= 0) || math.IsInf(float64(f.SeverityDB), 0) {
		return fmt.Errorf("fault: bad severity %g dB", float64(f.SeverityDB))
	}
	switch f.Kind {
	case ThermalDrift:
		if f.Node != -1 || f.Aux != -1 {
			return fmt.Errorf("fault: thermal fault carries nodes (%d,%d), want (-1,-1)", f.Node, f.Aux)
		}
		if f.SeverityDB == 0 {
			return fmt.Errorf("fault: thermal fault with zero severity")
		}
	case TapDrift:
		if f.Node < 0 || f.Node >= n || f.Aux < 0 || f.Aux >= n || f.Node == f.Aux {
			return fmt.Errorf("fault: tap drift (%d,%d) out of range [0,%d)", f.Node, f.Aux, n)
		}
	case WaveguideBreak:
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("fault: node %d out of range [0,%d)", f.Node, n)
		}
		// The break sits between Aux and Aux+1, so Aux spans [0, n-1).
		if f.Aux < 0 || f.Aux >= n-1 {
			return fmt.Errorf("fault: break segment %d out of range [0,%d)", f.Aux, n-1)
		}
	default:
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("fault: node %d out of range [0,%d)", f.Node, n)
		}
		if f.Aux != -1 {
			return fmt.Errorf("fault: %s carries aux %d, want -1", f.Kind, f.Aux)
		}
	}
	return nil
}

// Schedule is a complete fault plan for one run: discrete fault events
// plus a per-packet transient corruption rate.
type Schedule struct {
	// N is the node count of the system the schedule targets.
	N int
	// Cycles is the planning horizon the injector generated over.
	Cycles uint64
	// DropRate is the probability an individual packet transmission is
	// corrupted/dropped independently of device state.
	DropRate float64
	// DropSeed seeds the deterministic per-packet drop hash.
	DropSeed uint64
	// Faults is cycle-sorted (ties broken by kind, node, aux).
	Faults []Fault
}

// Validate checks the schedule.
func (s *Schedule) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("fault: schedule for %d nodes", s.N)
	}
	if s.Cycles == 0 {
		return fmt.Errorf("fault: zero-cycle schedule")
	}
	if !(s.DropRate >= 0 && s.DropRate <= 1) {
		return fmt.Errorf("fault: drop rate %g out of [0,1]", s.DropRate)
	}
	for i, f := range s.Faults {
		if err := f.Validate(s.N); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	if !sort.SliceIsSorted(s.Faults, func(i, j int) bool { return faultLess(s.Faults[i], s.Faults[j]) }) {
		return fmt.Errorf("fault: events out of order")
	}
	return nil
}

// Sort orders the events canonically (by cycle, kind, node, aux).
func (s *Schedule) Sort() {
	sort.Slice(s.Faults, func(i, j int) bool { return faultLess(s.Faults[i], s.Faults[j]) })
}

func faultLess(a, b Fault) bool {
	if a.Cycle != b.Cycle {
		return a.Cycle < b.Cycle
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Aux < b.Aux
}
