// Package phys provides the basic optical-physics primitives the mNoC
// models are built on: typed physical units (µW, dB, µJ, transmission
// fractions), decibel/linear conversions, and the chip-level physical
// constants (die size, waveguide length, propagation speed) the paper
// fixes in its methodology (Section 5.1, Table 2/3).
//
// All powers in this code base are carried as MicroWatts (a defined
// float64 type) unless a name says otherwise; the MicroWatt/MilliWatt/
// Watt constants make unit intent explicit at call sites. The defined
// types are zero-cost: they marshal to JSON, fingerprint with %+v and
// serialise to binary exactly like raw float64 — deliberately, so the
// wire formats and artifact cache keys predating the typed API are
// preserved byte-for-byte. For the same reason none of the unit types
// carries a String, Format or MarshalJSON method.
package phys

import (
	"errors"
	"fmt"
	"math"
)

// Power unit multipliers. Internal unit is the microwatt.
const (
	MicroWatt = 1.0
	MilliWatt = 1e3 * MicroWatt
	Watt      = 1e6 * MicroWatt
)

// MicroWatts is a power in µW, the code base's internal power unit.
type MicroWatts float64

// Decibels is a logarithmic power ratio. By convention the model code
// stores loss magnitudes as positive values (1.0 means "1 dB loss");
// Transmission applies that convention, Linear the raw gain one.
type Decibels float64

// MicroJoules is an energy in µJ. Because 1 µW · 1 s = 1 µJ, the µ
// prefix carries through power·time products with no conversion
// factor.
type MicroJoules float64

// Transmission is a transmitted power fraction in (0, 1].
type Transmission float64

// Watts converts to plain watts for reporting.
func (p MicroWatts) Watts() float64 { return float64(p) / Watt }

// Times attenuates the power by a transmission fraction.
func (p MicroWatts) Times(t Transmission) MicroWatts { return p * MicroWatts(t) }

// Over is the inverse of Times: the power that must be injected so
// that p survives a path with transmission t.
func (p MicroWatts) Over(t Transmission) MicroWatts { return p / MicroWatts(t) }

// Scale multiplies by a dimensionless factor.
func (p MicroWatts) Scale(k float64) MicroWatts { return p * MicroWatts(k) }

// Div divides by a dimensionless factor.
func (p MicroWatts) Div(k float64) MicroWatts { return p / MicroWatts(k) }

// Linear converts the decibel value to a linear power ratio. Positive
// dB is gain (>1), negative dB is loss (<1).
func (d Decibels) Linear() float64 { return DBToLinear(float64(d)) }

// Transmission interprets the value as a loss magnitude (positive =
// loss) and returns the surviving power fraction 10^(−d/10).
func (d Decibels) Transmission() Transmission {
	return Transmission(LossToTransmission(float64(d)))
}

// Plus adds two decibel quantities (cascaded losses/gains).
func (d Decibels) Plus(o Decibels) Decibels { return d + o }

// Scale multiplies by a dimensionless factor (e.g. dB/cm · cm).
func (d Decibels) Scale(k float64) Decibels { return d * Decibels(k) }

// Decibels converts a transmission fraction back to its loss
// magnitude in dB (positive for t < 1).
func (t Transmission) Decibels() Decibels {
	return Decibels(TransmissionToLoss(float64(t)))
}

// Chip-level constants from the paper's methodology (Section 5.1).
const (
	// DieAreaMM2 is the assumed die size in mm² ("We assume a die size of
	// 400mm²").
	DieAreaMM2 = 400.0

	// WaveguideLengthCM is the total serpentine waveguide length in cm
	// ("the waveguide's total length is approximately 18cm").
	WaveguideLengthCM = 18.0

	// LightSpeedCMPerNS is the (conservative) speed of light in the
	// waveguide: "about 10cm/ns".
	LightSpeedCMPerNS = 10.0

	// ClockGHz is the system clock (Table 2).
	ClockGHz = 5.0

	// FlitBits is the flit size in bits (Table 2).
	FlitBits = 256
)

// DBToLinear converts a loss/gain expressed in decibels to a linear power
// ratio. Positive dB is gain (>1), negative dB is loss (<1).
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// LinearToDB converts a linear power ratio to decibels. ratio must be > 0.
func LinearToDB(ratio float64) float64 {
	return 10 * math.Log10(ratio)
}

// LossToTransmission converts a loss magnitude in dB (a non-negative
// number, e.g. 1.0 for "1 dB loss") to the transmitted power fraction.
func LossToTransmission(lossDB float64) float64 {
	return math.Pow(10, -lossDB/10)
}

// TransmissionToLoss converts a transmitted power fraction in (0,1] back
// to a loss magnitude in dB.
func TransmissionToLoss(t float64) float64 {
	return -10 * math.Log10(t)
}

// PropagationCycles returns the number of whole clock cycles (rounded up,
// minimum 1) light needs to traverse distCM centimetres of waveguide.
// With the paper's constants the full 18 cm serpentine takes 1.8 ns,
// i.e. 9 cycles at 5 GHz — the "1-9 cycles for mNoC" in Table 2.
func PropagationCycles(distCM float64) int {
	if distCM <= 0 {
		return 1
	}
	ns := distCM / LightSpeedCMPerNS
	cycles := int(math.Ceil(ns * ClockGHz))
	if cycles < 1 {
		cycles = 1
	}
	return cycles
}

// FormatPower renders a power value with an auto-selected unit suffix,
// suitable for experiment tables.
func FormatPower(p MicroWatts) string {
	uw := float64(p)
	abs := math.Abs(uw)
	switch {
	case abs >= Watt:
		return fmt.Sprintf("%.2fW", uw/Watt)
	case abs >= MilliWatt:
		return fmt.Sprintf("%.2fmW", uw/MilliWatt)
	default:
		return fmt.Sprintf("%.2fuW", uw)
	}
}

// ErrNonPositive reports an argument that must have been strictly
// positive.
var ErrNonPositive = errors.New("phys: value must be > 0")

// CheckPositive returns ErrNonPositive (wrapped with the name) unless
// v > 0. It is the standard argument guard used by the model
// constructors in the device and waveguide packages, and accepts any
// of the defined unit types.
func CheckPositive[F ~float64](name string, v F) error {
	if v <= 0 || math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return fmt.Errorf("%w: %s = %g", ErrNonPositive, name, float64(v))
	}
	return nil
}

// CheckFraction validates that v lies in (0, 1].
func CheckFraction[F ~float64](name string, v F) error {
	if v <= 0 || v > 1 || math.IsNaN(float64(v)) {
		return fmt.Errorf("phys: %s = %g, want in (0, 1]", name, float64(v))
	}
	return nil
}
