package fault

import (
	"bytes"
	"math"
	"testing"

	"mnoc/internal/power"
	"mnoc/internal/topo"
)

func testNet(t *testing.T, n int) *power.MNoC {
	t.Helper()
	tp, err := topo.DistanceBased(n, []int{n / 2, n - 1 - n/2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := power.NewMNoC(power.DefaultConfig(n), tp, power.UniformWeighting(2))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := DefaultInjectorConfig(7)
	a, err := cfg.Generate(16, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(16, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var wa, wb bytes.Buffer
	if err := a.Write(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("identical injector configs produced different schedules")
	}
	if len(a.Faults) == 0 {
		t.Fatal("default rates over 1M cycles produced no faults")
	}
}

func TestInjectorScaleZero(t *testing.T) {
	s, err := DefaultInjectorConfig(1).Scale(0).Generate(16, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 0 || s.DropRate != 0 {
		t.Fatalf("scale-0 schedule not fault free: %d events, drop %g", len(s.Faults), s.DropRate)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	s, err := DefaultInjectorConfig(3).Generate(16, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("schedule did not round trip byte-identically")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"nonsense",
		"mnoc-fault-schedule v1\nn 8\n",
		"mnoc-fault-schedule v1\nn 8\ncycles 10\ndroprate nope\ndropseed 1\nend\n",
		"mnoc-fault-schedule v1\nn 8\ncycles 10\ndroprate 0\ndropseed 1\nfault x\nend\n",
		// Unsorted events.
		"mnoc-fault-schedule v1\nn 8\ncycles 10\ndroprate 0\ndropseed 1\n" +
			"fault 5 led-death 1 -1 0 0\nfault 2 led-death 0 -1 0 0\nend\n",
		// Node out of range.
		"mnoc-fault-schedule v1\nn 8\ncycles 10\ndroprate 0\ndropseed 1\n" +
			"fault 1 led-death 9 -1 0 0\nend\n",
	} {
		if _, err := Parse(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("Parse accepted %q", in)
		}
	}
}

func TestStateLossSemantics(t *testing.T) {
	s := &Schedule{N: 8, Cycles: 1000, Faults: []Fault{
		{Cycle: 10, Kind: LEDDeath, Node: 0, Aux: -1},
		{Cycle: 10, Kind: ReceiverBleach, Node: 3, Aux: -1, SeverityDB: 1.5},
		{Cycle: 20, Kind: TapDrift, Node: 1, Aux: 5, SeverityDB: 2},
		{Cycle: 30, Kind: WaveguideBreak, Node: 2, Aux: 4},
		{Cycle: 40, Kind: ThermalDrift, Node: -1, Aux: -1, SeverityDB: 0.5, DurationCycles: 100},
	}}
	st, err := NewState(s)
	if err != nil {
		t.Fatal(err)
	}

	// Before onset: clean.
	if l := st.Loss(5, 0, 1); l.Fatal || l.TotalDB() != 0 {
		t.Fatalf("loss before onset: %+v", l)
	}
	// LED death: fatal for everything node 0 sends, not what it receives.
	if l := st.Loss(50, 0, 1); !l.Fatal {
		t.Fatalf("LED death not fatal: %+v", l)
	}
	if l := st.Loss(50, 1, 0); l.Fatal {
		t.Fatalf("LED death affected reception: %+v", l)
	}
	// Bleach: permanent dB on deliveries to node 3 only.
	if l := st.Loss(50, 1, 3); l.PermanentDB != 1.5 {
		t.Fatalf("bleach loss: %+v", l)
	}
	// Tap drift: only the (1,5) pair.
	if l := st.Loss(50, 1, 5); l.PermanentDB != 1.5+0 && l.PermanentDB != 2 {
		// node 5 is not bleached; expect exactly the drift's 2 dB
		t.Fatalf("tap drift loss: %+v", l)
	}
	if l := st.Loss(50, 1, 6); l.PermanentDB != 0 {
		t.Fatalf("tap drift leaked to other pair: %+v", l)
	}
	// Guide break between 4 and 5 on node 2's guide: 2→6 severed, 2→3 fine.
	if l := st.Loss(50, 2, 6); !l.Fatal {
		t.Fatalf("break did not sever far side: %+v", l)
	}
	if l := st.Loss(50, 2, 3); l.Fatal {
		t.Fatalf("break severed near side: %+v", l)
	}
	// Thermal: transient, chip-wide, expires.
	if l := st.Loss(50, 6, 7); l.TransientDB != 0.5 {
		t.Fatalf("thermal loss during epoch: %+v", l)
	}
	if l := st.Loss(200, 6, 7); l.TransientDB != 0 {
		t.Fatalf("thermal loss after epoch: %+v", l)
	}
}

func TestDeadNodeQueries(t *testing.T) {
	s := &Schedule{N: 4, Cycles: 100, Faults: []Fault{
		{Cycle: 10, Kind: LEDDeath, Node: 1, Aux: -1},
		{Cycle: 20, Kind: ReceiverDeath, Node: 2, Aux: -1},
	}}
	st, err := NewState(s)
	if err != nil {
		t.Fatal(err)
	}
	if ds := st.DeadSources(15); !ds[1] || ds[0] || ds[2] || ds[3] {
		t.Fatalf("dead sources at 15: %v", ds)
	}
	if dr := st.DeadReceivers(15); dr[2] {
		t.Fatalf("receiver dead before onset: %v", dr)
	}
	if dr := st.DeadReceivers(25); !dr[2] {
		t.Fatalf("receiver not dead after onset: %v", dr)
	}
}

func TestDroppedDeterministicAndRateful(t *testing.T) {
	s := &Schedule{N: 4, Cycles: 1 << 20, DropRate: 0.01, DropSeed: 99}
	st, err := NewState(s)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const trials = 200_000
	for c := uint64(0); c < trials; c++ {
		if st.Dropped(c, 0, 1) {
			hits++
		}
		if st.Dropped(c, 0, 1) != st.Dropped(c, 0, 1) {
			t.Fatal("drop decision not deterministic")
		}
	}
	got := float64(hits) / trials
	if got < 0.008 || got > 0.012 {
		t.Fatalf("drop rate %g, want ~0.01", got)
	}
}

func TestCheckerMarginAndGuard(t *testing.T) {
	net := testNet(t, 8)
	b := NewBudget(net)

	// Nominal mode margin is exactly zero; broadcast mode gives the
	// low-mode destinations headroom.
	if m := b.MarginDB(0, 1, b.NominalMode(0, 1)); math.Abs(float64(m)) > 1e-9 {
		t.Fatalf("nominal margin = %g, want 0", m)
	}
	low, high := -1, -1
	for d := 1; d < 8; d++ {
		if b.NominalMode(0, d) == 0 {
			low = d
		} else {
			high = d
		}
	}
	if low < 0 || high < 0 {
		t.Fatal("distance topology produced a single mode")
	}
	esc := b.MarginDB(0, low, 1)
	if esc <= 0 {
		t.Fatalf("escalation margin = %g, want > 0", esc)
	}

	// A bleach smaller than the escalation margin: nominal fails,
	// escalated succeeds, guard band also rescues nominal.
	sev := esc / 2
	s := &Schedule{N: 8, Cycles: 1000, Faults: []Fault{
		{Cycle: 0, Kind: ReceiverBleach, Node: low, Aux: -1, SeverityDB: sev},
	}}
	st, err := NewState(s)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(st, b)
	nominal := func(dst int) Verdict { return c.Check(5, 0, dst, b.NominalMode(0, dst), 0) }

	v := nominal(low)
	if v.Delivered || v.Fatal {
		t.Fatalf("bleach misclassified: %+v", v)
	}
	if math.Abs(float64(v.ShortfallDB-sev)) > 1e-9 {
		t.Fatalf("shortfall = %g, want %g", v.ShortfallDB, sev)
	}
	if v := c.Check(5, 0, low, 1, 0); !v.Delivered {
		t.Fatalf("escalated mode should deliver: %+v", v)
	}
	if v := c.Check(5, 0, low, b.NominalMode(0, low), sev+0.1); !v.Delivered {
		t.Fatalf("drive uplift should deliver: %+v", v)
	}
	c.GuardDB = sev + 0.1
	if v := nominal(low); !v.Delivered {
		t.Fatalf("guard band should deliver: %+v", v)
	}

	// Deliveries to the high-mode destination are unaffected.
	if v := nominal(high); !v.Delivered {
		t.Fatalf("unaffected pair failed: %+v", v)
	}

	// A dead receiver is fatal, with no shortfall: no drive power
	// reaches it, so recovery neither escalates nor retries.
	st, err = NewState(&Schedule{N: 8, Cycles: 1000, Faults: []Fault{
		{Cycle: 0, Kind: ReceiverDeath, Node: 3, Aux: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = NewChecker(st, b)
	if v := nominal(1); !v.Delivered {
		t.Fatalf("healthy pair failed: %+v", v)
	}
	if v := nominal(3); v.Delivered || !v.Fatal || v.ShortfallDB != 0 {
		t.Fatalf("dead receiver: %+v, want fatal with no shortfall", v)
	}

	// A dropped packet is lost but neither fatal nor short, so the
	// recovery ladder retries it without counting it toward the
	// guard-band trigger.
	st, err = NewState(&Schedule{N: 8, Cycles: 1000, DropRate: 1, DropSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c = NewChecker(st, b)
	if v := nominal(low); v.Delivered || v.Fatal || v.ShortfallDB != 0 {
		t.Fatalf("dropped packet: %+v, want undelivered, not fatal, no shortfall", v)
	}
}
