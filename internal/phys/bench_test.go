// Benchmark guard for the typed unit system: the defined types must
// compile to exactly the float64 arithmetic they replaced — zero
// allocations, no call overhead. The two benchmarks mirror the hot
// loops of the repository (the splitter backward recurrence and the
// power-evaluation accumulation); TestTypedOpsAllocFree turns the alloc
// half of the guarantee into a hard test, and
// TestTypedRecurrenceMatchesRaw pins the loops bit for bit against the
// same arithmetic on raw float64.

package phys

import (
	"math"
	"testing"
)

// benchN is the recurrence length — one paper-scale serpentine side.
const benchN = 256

var (
	sinkUW  MicroWatts
	sinkF64 float64
)

// typedRecurrence is the splitter backward recurrence written against
// the typed API: incident = req + carry, carry = incident/t.
func typedRecurrence(req []MicroWatts, t Transmission) MicroWatts {
	carry := MicroWatts(0)
	for j := len(req) - 1; j >= 0; j-- {
		incident := req[j] + carry
		carry = incident.Over(t)
	}
	return carry
}

func typedReq() ([]MicroWatts, Transmission) {
	req := make([]MicroWatts, benchN)
	for j := range req {
		req[j] = MicroWatts(15.7 + float64(j)*0.01)
	}
	return req, Decibels(0.0703125).Transmission()
}

func BenchmarkSplitterRecurrenceTyped(b *testing.B) {
	req, t := typedReq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkUW = typedRecurrence(req, t)
	}
}

// typedEval mirrors the power-evaluation accumulation: per-pair drive
// power scaled by traffic, summed into a float64 accumulator exactly
// as MNoC.Evaluate does.
func typedEval(drive []MicroWatts, counts []float64) MicroWatts {
	sum := 0.0
	for i, v := range counts {
		sum += v * float64(drive[i%len(drive)])
	}
	return MicroWatts(sum)
}

func evalInputs() ([]MicroWatts, []float64) {
	drive := make([]MicroWatts, 4)
	for m := range drive {
		drive[m] = MicroWatts(100 * math.Pow(2, float64(m)))
	}
	counts := make([]float64, benchN*benchN/64)
	for i := range counts {
		counts[i] = float64(i % 17)
	}
	return drive, counts
}

func BenchmarkPowerEvalTyped(b *testing.B) {
	drive, counts := evalInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkUW = typedEval(drive, counts)
	}
}

// TestTypedOpsAllocFree asserts the typed inner loops allocate nothing:
// the defined types are free at runtime.
func TestTypedOpsAllocFree(t *testing.T) {
	req, tr := typedReq()
	if allocs := testing.AllocsPerRun(100, func() {
		sinkUW = typedRecurrence(req, tr)
	}); allocs != 0 {
		t.Errorf("typed splitter recurrence allocates %g times per run", allocs)
	}
	drive, counts := evalInputs()
	if allocs := testing.AllocsPerRun(100, func() {
		sinkUW = typedEval(drive, counts)
	}); allocs != 0 {
		t.Errorf("typed power evaluation allocates %g times per run", allocs)
	}
	// The conversion methods themselves are also allocation-free.
	if allocs := testing.AllocsPerRun(100, func() {
		sinkF64 = Decibels(1.3).Linear() * float64(MicroWatts(10).Times(Decibels(0.2).Transmission()))
	}); allocs != 0 {
		t.Errorf("typed conversions allocate %g times per run", allocs)
	}
}

// TestTypedRecurrenceMatchesRaw pins bit-identity: the typed loops
// must produce exactly the float64 result of the same loops on raw
// float64.
func TestTypedRecurrenceMatchesRaw(t *testing.T) {
	req, tr := typedReq()
	carry := 0.0
	for j := len(req) - 1; j >= 0; j-- {
		carry = (float64(req[j]) + carry) / LossToTransmission(0.0703125)
	}
	if got := float64(typedRecurrence(req, tr)); got != carry {
		t.Fatalf("typed recurrence %g != raw %g", got, carry)
	}
	drive, counts := evalInputs()
	sum := 0.0
	for i, v := range counts {
		sum += v * (100 * math.Pow(2, float64(i%len(drive))))
	}
	if got := float64(typedEval(drive, counts)); got != sum {
		t.Fatalf("typed eval %g != raw %g", got, sum)
	}
}
