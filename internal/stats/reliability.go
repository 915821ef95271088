// Degradation reporting: the delivered-vs-offered reliability curve the
// fault sweep produces (one point per fault-rate scale, baseline and
// recovery side by side), rendered as a deterministic fixed-width table
// so identical runs emit byte-identical output.

package stats

import (
	"fmt"
	"io"
)

// ReliabilityPoint is one fault-rate operating point of a degradation
// sweep.
type ReliabilityPoint struct {
	// Scale is the fault-rate multiplier of the sweep's base environment.
	Scale float64
	// Offered/Delivered count packets presented to and received from the
	// network; Retries counts re-transmissions the recovery layer issued.
	Offered, Delivered uint64
	Retries            uint64
	// PowerW is the run's average network power.
	PowerW float64
}

// DeliveredFrac is the point's reliability (1 for an idle run).
func (p ReliabilityPoint) DeliveredFrac() float64 {
	if p.Offered == 0 {
		return 1
	}
	return float64(p.Delivered) / float64(p.Offered)
}

// ReliabilityCurve pairs baseline (fault-oblivious) and recovery runs
// over the same fault-rate scales.
type ReliabilityCurve struct {
	Baseline []ReliabilityPoint
	Recovery []ReliabilityPoint
}

// Render writes the curve as a fixed-width table plus a bar chart of
// the two delivered fractions. Output is canonical: a function of the
// points only.
func (c *ReliabilityCurve) Render(w io.Writer) error {
	if len(c.Baseline) != len(c.Recovery) {
		return fmt.Errorf("stats: %d baseline points vs %d recovery points", len(c.Baseline), len(c.Recovery))
	}
	if len(c.Baseline) == 0 {
		return fmt.Errorf("stats: empty reliability curve")
	}
	if _, err := fmt.Fprintf(w, "%8s  %10s  %12s  %12s  %9s  %12s  %12s\n",
		"scale", "offered", "base-frac", "rec-frac", "retries", "base-mW", "rec-mW"); err != nil {
		return err
	}
	for i, b := range c.Baseline {
		r := c.Recovery[i]
		if b.Offered != r.Offered {
			return fmt.Errorf("stats: point %d offered mismatch (%d vs %d)", i, b.Offered, r.Offered)
		}
		if _, err := fmt.Fprintf(w, "%8.2f  %10d  %12.6f  %12.6f  %9d  %12.4f  %12.4f\n",
			b.Scale, b.Offered, b.DeliveredFrac(), r.DeliveredFrac(),
			r.Retries, b.PowerW*1e3, r.PowerW*1e3); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := range c.Baseline {
		b, r := c.Baseline[i], c.Recovery[i]
		if _, err := fmt.Fprintf(w, "%8.2f  base %s\n%8s  rec  %s\n",
			b.Scale, reliabilityBar(b.DeliveredFrac()), "", reliabilityBar(r.DeliveredFrac())); err != nil {
			return err
		}
	}
	return nil
}

// reliabilityBar renders a 50-char bar of a [0,1] fraction.
func reliabilityBar(frac float64) string {
	const width = 50
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac * width)
	bar := make([]byte, width)
	for i := range bar {
		if i < full {
			bar[i] = '#'
		} else {
			bar[i] = '.'
		}
	}
	return fmt.Sprintf("|%s| %7.4f", bar, frac)
}
