// Package waveguide models the physical substrate of an mNoC SWMR
// crossbar: the serpentine waveguide layout, per-segment transmission
// loss, and the splitter-chain power propagation of the paper's Figure 4
// and Equation 2.
//
// In an SWMR crossbar each source node owns a dedicated waveguide that
// visits every node on the die. With the serpentine layout, node index
// order equals physical order along the guide, so the distance between
// nodes i and j is |i−j| segments. The source sits at its own index on
// its own waveguide; its injected power is split between the two
// directions and tapped by each destination's splitter.
package waveguide

import (
	"fmt"
	"math"
	"sync/atomic"

	"mnoc/internal/phys"
)

// Layout describes one serpentine waveguide spanning N nodes.
type Layout struct {
	// N is the number of nodes on the waveguide (crossbar radix).
	N int
	// LengthCM is the end-to-end waveguide length in cm.
	LengthCM float64
	// LossDBPerCM is the waveguide transmission loss per centimetre
	// (Table 3: 1 dB/cm; scalability discussion also considers
	// 2 dB/cm).
	LossDBPerCM phys.Decibels
}

// NewSerpentine returns the paper's layout for an n-node crossbar:
// an 18 cm serpentine with 1 dB/cm loss (Sections 5.1, Table 3).
func NewSerpentine(n int) Layout {
	return Layout{N: n, LengthCM: phys.WaveguideLengthCM, LossDBPerCM: 1.0}
}

// Validate checks the layout is well formed.
func (l Layout) Validate() error {
	if l.N < 2 {
		return fmt.Errorf("waveguide: need at least 2 nodes, got %d", l.N)
	}
	if err := phys.CheckPositive("Layout.LengthCM", l.LengthCM); err != nil {
		return err
	}
	if l.LossDBPerCM < 0 {
		return fmt.Errorf("waveguide: negative loss %g dB/cm", l.LossDBPerCM)
	}
	return nil
}

// SegmentCM is the distance between two adjacent nodes on the guide.
func (l Layout) SegmentCM() float64 {
	return l.LengthCM / float64(l.N-1)
}

// DistanceCM is the along-guide distance between nodes i and j.
func (l Layout) DistanceCM(i, j int) float64 {
	return math.Abs(float64(i-j)) * l.SegmentCM()
}

// SegmentTransmission is the fraction of power surviving one segment.
func (l Layout) SegmentTransmission() phys.Transmission {
	return l.LossDBPerCM.Scale(l.SegmentCM()).Transmission()
}

// PathTransmission is the waveguide-only transmission (no splitters)
// between nodes i and j: the L^{|j−i|} term of Equation 2.
func (l Layout) PathTransmission(i, j int) phys.Transmission {
	return l.LossDBPerCM.Scale(l.DistanceCM(i, j)).Transmission()
}

// pathTable is one layout's PathTransmissions result.
type pathTable struct {
	layout Layout
	t      []phys.Transmission
}

// lastPathTable caches the most recent PathTransmissions table. A
// network build solves every source against one layout, so one entry
// is enough, and it stays bounded in a long-running server.
var lastPathTable atomic.Pointer[pathTable]

// PathTransmissions returns PathTransmission(0, d) for every d in
// [0, N): the transmission over d segments, which is bit-equal to
// PathTransmission(i, j) for every |i−j| = d. The slice is shared
// between callers and must not be modified.
func (l Layout) PathTransmissions() []phys.Transmission {
	if c := lastPathTable.Load(); c != nil && c.layout == l {
		return c.t
	}
	t := make([]phys.Transmission, max(l.N, 0))
	for d := range t {
		t[d] = l.PathTransmission(0, d)
	}
	lastPathTable.Store(&pathTable{layout: l, t: t})
	return t
}

// MaxPathLossDB is the worst-case (longest-path) waveguide insertion
// loss from src: the loss to whichever end of the serpentine lies
// farthest, the L_max term of the worst-case crossbar loss models
// (Li et al., "Optical Crossbars on Chip", PAPERS.md).
func (l Layout) MaxPathLossDB(src int) phys.Decibels {
	far := 0
	if src < l.N-1-src {
		far = l.N - 1
	}
	return l.LossDBPerCM.Scale(l.DistanceCM(src, far))
}

// WorstPathTransmission is the transmission of the longest path from
// src — the denominator of worst-case power sizing.
func (l Layout) WorstPathTransmission(src int) phys.Transmission {
	return l.MaxPathLossDB(src).Transmission()
}

// LatencyCycles is the optical propagation latency between nodes i and j
// in whole clock cycles (1-9 for the paper's full-size layout).
func (l Layout) LatencyCycles(i, j int) int {
	return phys.PropagationCycles(l.DistanceCM(i, j))
}

// MaxLatencyCycles is the worst-case propagation latency from src to any
// node on the guide.
func (l Layout) MaxLatencyCycles(src int) int {
	far := 0
	if src < l.N-1-src {
		far = l.N - 1
	}
	return l.LatencyCycles(src, far)
}

// Chain is a fully specified splitter chain on one source's waveguide:
// the per-destination tap fractions S_j and the source direction split.
// It implements the forward power-propagation model of Figure 4; the
// design process that chooses the taps lives in package splitter.
type Chain struct {
	Layout Layout
	// Source is the index of the transmitting node on this waveguide.
	Source int
	// Taps[j] is S_j, the fraction of incident power node j's splitter
	// diverts to its receiver. Taps[Source] is ignored. A tap of 0
	// means the node passes all power through (no receiver drop).
	Taps []float64
	// DirLow is S_i in Equation 2's direction term: the fraction of the
	// injected power sent toward lower node indices; 1−DirLow goes
	// toward higher indices.
	DirLow float64
}

// Validate checks the chain is physical.
func (c *Chain) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Source < 0 || c.Source >= c.Layout.N {
		return fmt.Errorf("waveguide: source %d out of range [0,%d)", c.Source, c.Layout.N)
	}
	if len(c.Taps) != c.Layout.N {
		return fmt.Errorf("waveguide: %d taps for %d nodes", len(c.Taps), c.Layout.N)
	}
	for j, s := range c.Taps {
		if j == c.Source {
			continue
		}
		if s < 0 || s > 1 || math.IsNaN(s) {
			return fmt.Errorf("waveguide: tap S_%d = %g out of [0,1]", j, s)
		}
	}
	if c.DirLow < 0 || c.DirLow > 1 || math.IsNaN(c.DirLow) {
		return fmt.Errorf("waveguide: direction split %g out of [0,1]", c.DirLow)
	}
	return nil
}

// Received returns the optical power arriving at every node's
// receiver tap when the source injects `injected` into the guide. The
// entry for the source itself is 0.
func (c *Chain) Received(injected phys.MicroWatts) []phys.MicroWatts {
	out := make([]phys.MicroWatts, c.Layout.N)
	t := c.Layout.SegmentTransmission()

	// Walk toward lower indices.
	p := injected.Scale(c.DirLow)
	for j := c.Source - 1; j >= 0; j-- {
		p = p.Times(t) // segment from previous node
		out[j] = p.Scale(c.Taps[j])
		p = p.Scale(1 - c.Taps[j])
	}
	// Walk toward higher indices.
	p = injected.Scale(1 - c.DirLow)
	for j := c.Source + 1; j < c.Layout.N; j++ {
		p = p.Times(t)
		out[j] = p.Scale(c.Taps[j])
		p = p.Scale(1 - c.Taps[j])
	}
	return out
}

// ReceivedAt returns only node j's received power for `injected`.
func (c *Chain) ReceivedAt(injected phys.MicroWatts, j int) phys.MicroWatts {
	if j == c.Source || j < 0 || j >= c.Layout.N {
		return 0
	}
	t := c.Layout.SegmentTransmission()
	var p phys.MicroWatts
	if j < c.Source {
		p = injected.Scale(c.DirLow)
		for k := c.Source - 1; k > j; k-- {
			p = p.Scale(float64(t) * (1 - c.Taps[k]))
		}
	} else {
		p = injected.Scale(1 - c.DirLow)
		for k := c.Source + 1; k < j; k++ {
			p = p.Scale(float64(t) * (1 - c.Taps[k]))
		}
	}
	return p.Times(t).Scale(c.Taps[j])
}
