package waveguide

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mnoc/internal/phys"
)

func TestNewSerpentineDefaults(t *testing.T) {
	l := NewSerpentine(256)
	if l.N != 256 || l.LengthCM != 18 || l.LossDBPerCM != 1 {
		t.Fatalf("unexpected defaults: %+v", l)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := []Layout{
		{N: 1, LengthCM: 18, LossDBPerCM: 1},
		{N: 256, LengthCM: 0, LossDBPerCM: 1},
		{N: 256, LengthCM: 18, LossDBPerCM: -1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", l)
		}
	}
}

func TestDistanceSymmetricAndLinear(t *testing.T) {
	l := NewSerpentine(256)
	if d := l.DistanceCM(0, 255); math.Abs(d-18) > 1e-9 {
		t.Errorf("end-to-end distance = %v cm, want 18", d)
	}
	f := func(i, j uint8) bool {
		a, b := int(i), int(j)
		return l.DistanceCM(a, b) == l.DistanceCM(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathTransmissionEndToEnd(t *testing.T) {
	l := NewSerpentine(256)
	// 18 cm at 1 dB/cm = 18 dB loss.
	got := l.PathTransmission(0, 255)
	want := phys.LossToTransmission(18)
	if math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("PathTransmission(0,255) = %v, want %v", got, want)
	}
}

func TestPathTransmissionComposes(t *testing.T) {
	l := NewSerpentine(64)
	f := func(i, j, k uint8) bool {
		a, b, c := int(i)%64, int(j)%64, int(k)%64
		if !(a <= b && b <= c) {
			return true
		}
		return math.Abs(float64(l.PathTransmission(a, c)-l.PathTransmission(a, b)*l.PathTransmission(b, c))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyCyclesRange(t *testing.T) {
	l := NewSerpentine(256)
	// Table 2: optical link latency 1-9 cycles for mNoC.
	if got := l.LatencyCycles(0, 255); got != 9 {
		t.Errorf("worst-case latency = %d, want 9", got)
	}
	if got := l.LatencyCycles(100, 101); got != 1 {
		t.Errorf("adjacent latency = %d, want 1", got)
	}
	if got := l.MaxLatencyCycles(0); got != 9 {
		t.Errorf("MaxLatencyCycles(0) = %d, want 9", got)
	}
	if got := l.MaxLatencyCycles(127); got > 5 {
		t.Errorf("middle source worst latency = %d, want <= 5", got)
	}
}

func newUniformChain(t *testing.T, n, src int, tap float64) *Chain {
	t.Helper()
	taps := make([]float64, n)
	for i := range taps {
		taps[i] = tap
	}
	c := &Chain{Layout: NewSerpentine(n), Source: src, Taps: taps, DirLow: 0.5}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainEnergyConservation(t *testing.T) {
	// Total received power can never exceed injected power.
	c := newUniformChain(t, 64, 20, 0.3)
	recv := c.Received(1000)
	sum := 0.0
	for _, r := range recv {
		sum += float64(r)
	}
	if sum > 1000 {
		t.Fatalf("received %v µW from 1000 µW injected", sum)
	}
	if recv[c.Source] != 0 {
		t.Fatalf("source received its own power: %v", recv[c.Source])
	}
}

func TestChainLinearInInjectedPower(t *testing.T) {
	c := newUniformChain(t, 32, 5, 0.25)
	a := c.Received(100)
	b := c.Received(300)
	for j := range a {
		if math.Abs(float64(b[j]-3*a[j])) > 1e-9*math.Max(1, float64(b[j])) {
			t.Fatalf("node %d not linear: %v vs 3*%v", j, b[j], a[j])
		}
	}
}

func TestChainReceivedAtMatchesReceived(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewSerpentine(48)
	taps := make([]float64, 48)
	for i := range taps {
		taps[i] = rng.Float64()
	}
	c := &Chain{Layout: l, Source: 17, Taps: taps, DirLow: 0.37}
	all := c.Received(500)
	for j := 0; j < 48; j++ {
		got := c.ReceivedAt(500, j)
		if math.Abs(float64(got-all[j])) > 1e-9*math.Max(1, float64(all[j])) {
			t.Fatalf("node %d: ReceivedAt=%v Received=%v", j, got, all[j])
		}
	}
}

func TestChainDirectionSplit(t *testing.T) {
	// With DirLow=1 nothing reaches the high side and vice versa.
	c := newUniformChain(t, 16, 8, 0.5)
	c.DirLow = 1
	recv := c.Received(100)
	for j := 9; j < 16; j++ {
		if recv[j] != 0 {
			t.Fatalf("node %d received %v with DirLow=1", j, recv[j])
		}
	}
	c.DirLow = 0
	recv = c.Received(100)
	for j := 0; j < 8; j++ {
		if recv[j] != 0 {
			t.Fatalf("node %d received %v with DirLow=0", j, recv[j])
		}
	}
}

func TestChainMonotoneDecayPastEqualTaps(t *testing.T) {
	// With equal taps, received power strictly decreases with distance.
	c := newUniformChain(t, 64, 0, 0.2)
	c.DirLow = 0
	recv := c.Received(1000)
	for j := 2; j < 64; j++ {
		if recv[j] >= recv[j-1] {
			t.Fatalf("received power not decaying at node %d: %v >= %v", j, recv[j], recv[j-1])
		}
	}
}

func TestChainValidateRejects(t *testing.T) {
	c := newUniformChain(t, 16, 8, 0.5)
	c.Taps[3] = 1.5
	if err := c.Validate(); err == nil {
		t.Error("tap > 1 accepted")
	}
	c = newUniformChain(t, 16, 8, 0.5)
	c.DirLow = -0.1
	if err := c.Validate(); err == nil {
		t.Error("negative direction split accepted")
	}
	c = newUniformChain(t, 16, 8, 0.5)
	c.Source = 99
	if err := c.Validate(); err == nil {
		t.Error("out-of-range source accepted")
	}
	c = newUniformChain(t, 16, 8, 0.5)
	c.Taps = c.Taps[:4]
	if err := c.Validate(); err == nil {
		t.Error("short taps slice accepted")
	}
}

func TestChainSourceTapIgnoredByValidate(t *testing.T) {
	c := newUniformChain(t, 16, 8, 0.5)
	c.Taps[8] = 42 // nonsense at the source position must be ignored
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected ignored source tap: %v", err)
	}
}

// TestPathTransmissionsMatchesPathTransmission pins the table to the
// per-pair form bit for bit: entry |i−j| is PathTransmission(i, j).
func TestPathTransmissionsMatchesPathTransmission(t *testing.T) {
	for _, n := range []int{1, 64, 256} {
		for _, loss := range []phys.Decibels{1, 2} {
			l := NewSerpentine(n)
			l.LossDBPerCM = loss
			table := l.PathTransmissions()
			if len(table) != n {
				t.Fatalf("N=%d: table has %d entries", n, len(table))
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d := i - j
					if d < 0 {
						d = -d
					}
					got, want := table[d], l.PathTransmission(i, j)
					if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
						t.Fatalf("N=%d %g dB/cm: table[%d] = %v, PathTransmission(%d, %d) = %v",
							n, loss, d, got, i, j, want)
					}
				}
			}
		}
	}
}

// TestPathTransmissionsConcurrentLayouts has callers alternate between
// two layouts, so the single-entry cache is replaced under concurrent
// reads (run it under -race); every caller must still get its own
// layout's table.
func TestPathTransmissionsConcurrentLayouts(t *testing.T) {
	a := NewSerpentine(64)
	b := NewSerpentine(128)
	b.LossDBPerCM = 2
	check := func(l Layout) bool {
		table := l.PathTransmissions()
		if len(table) != l.N {
			return false
		}
		for d, v := range table {
			if v != l.PathTransmission(0, d) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan Layout, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := a
				if (g+i)%2 == 1 {
					l = b
				}
				if !check(l) {
					errs <- l
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for l := range errs {
		t.Errorf("layout %+v: wrong path-transmission table", l)
	}
}
