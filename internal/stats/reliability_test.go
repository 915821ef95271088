package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestReliabilityCurveRender(t *testing.T) {
	c := &ReliabilityCurve{
		Baseline: []ReliabilityPoint{
			{Scale: 0, Offered: 100, Delivered: 100, PowerW: 0.001},
			{Scale: 2, Offered: 100, Delivered: 60, PowerW: 0.001},
		},
		Recovery: []ReliabilityPoint{
			{Scale: 0, Offered: 100, Delivered: 100, PowerW: 0.001},
			{Scale: 2, Offered: 100, Delivered: 99, Retries: 50, PowerW: 0.0015},
		},
	}
	var a, b bytes.Buffer
	if err := c.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("render is not deterministic")
	}
	out := a.String()
	for _, want := range []string{"0.600000", "0.990000", "1.5000", "base |", "rec  |"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReliabilityCurveRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := (&ReliabilityCurve{}).Render(&buf); err == nil {
		t.Error("empty curve accepted")
	}
	c := &ReliabilityCurve{
		Baseline: []ReliabilityPoint{{Offered: 1, Delivered: 1}},
	}
	if err := c.Render(&buf); err == nil {
		t.Error("mismatched point counts accepted")
	}
	c.Recovery = []ReliabilityPoint{{Offered: 2, Delivered: 2}}
	if err := c.Render(&buf); err == nil {
		t.Error("mismatched offered counts accepted")
	}
	if f := (ReliabilityPoint{}).DeliveredFrac(); f != 1 {
		t.Errorf("idle point frac = %g, want 1", f)
	}
}
