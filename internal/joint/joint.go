// Package joint implements the joint optimisation of thread mapping and
// power-topology design that the paper defers to future work ("A more
// general approach would perform a joint optimization of power topology
// design and thread mapping", Section 4.5; also Section 7).
//
// The paper's pipeline is sequential: map threads against the
// single-mode waveguide-loss cost, then design a topology for the
// mapped traffic. This package alternates the two steps and selects by
// *evaluated power* rather than the QAP proxy objective. Two findings
// emerge (see the tests and the joint experiment):
//
//   - With a *fixed* topology family (the naive distance-based designs),
//     re-solving the QAP against the topology's true per-packet mode
//     powers strictly improves on the paper's waveguide-loss mapping:
//     the mapper learns each source's mode boundaries.
//
//   - With the fully adaptive communication-aware family, the
//     sequential pipeline is already a fixed point of the alternation:
//     the topology redesign absorbs any placement change, so the
//     mapping only matters through the position-dependent waveguide
//     loss the paper's mapping already optimises. Joint search then
//     helps only via multi-start diversity.
package joint

import (
	"fmt"
	"math/rand"

	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// Family selects the topology family being co-optimised.
type Family int

// Topology families.
const (
	// CommAware redesigns a communication-aware topology each round.
	CommAware Family = iota
	// Distance keeps the paper's fixed distance-based topology and
	// only re-optimises the mapping against its mode powers.
	Distance
)

// Options tunes the alternating optimisation.
type Options struct {
	// Family is the topology family (CommAware or Distance).
	Family Family
	// Modes selects the design size (2 or 4).
	Modes int
	// Rounds bounds the number of alternations (default 4).
	Rounds int
	// QAPIters is the taboo budget per mapping pass (0 = package
	// default).
	QAPIters int
	// Seed drives the heuristics.
	Seed int64
	// Cycles is the power-evaluation window.
	Cycles float64
}

func (o *Options) fill() error {
	if o.Modes != 2 && o.Modes != 4 {
		return fmt.Errorf("joint: modes = %d, want 2 or 4", o.Modes)
	}
	if o.Family != CommAware && o.Family != Distance {
		return fmt.Errorf("joint: unknown family %d", o.Family)
	}
	if o.Rounds <= 0 {
		o.Rounds = 4
	}
	if o.Cycles <= 0 {
		return fmt.Errorf("joint: cycles = %g", o.Cycles)
	}
	return nil
}

// Result is the best design/mapping pair found.
type Result struct {
	Topology *topo.Topology
	Network  *power.MNoC
	Mapping  mapping.Assignment
	// PowerTrailW records the best evaluated total power (W) after each
	// round; entry 0 is the paper's sequential pipeline, so later
	// entries quantify the value of joint optimisation.
	PowerTrailW []float64
}

// Optimize runs the joint optimisation on a thread-indexed traffic
// profile.
func Optimize(cfg power.Config, profile *trace.Matrix, opt Options) (*Result, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if profile.N != cfg.N {
		return nil, fmt.Errorf("joint: profile for %d threads, config for %d", profile.N, cfg.N)
	}

	// Round 0 = the paper's sequential pipeline: QAP against the
	// single-mode waveguide loss, then the family's design.
	prob, err := mapping.FromTraffic(profile, cfg.Splitter.Layout)
	if err != nil {
		return nil, err
	}
	asg := prob.Taboo(prob.CenterGreedy(), mapping.TabooOptions{
		Seed: opt.Seed, Iterations: opt.QAPIters,
	})

	res := &Result{}
	evaluate := func(a mapping.Assignment) (float64, *topo.Topology, *power.MNoC, error) {
		mapped, err := profile.Permute(a)
		if err != nil {
			return 0, nil, nil, err
		}
		t, err := designFor(cfg, mapped, opt)
		if err != nil {
			return 0, nil, nil, err
		}
		net, err := power.NewMNoC(cfg, t, power.SampledWeighting(mapped))
		if err != nil {
			return 0, nil, nil, err
		}
		b, err := net.Evaluate(mapped, opt.Cycles)
		if err != nil {
			return 0, nil, nil, err
		}
		return b.TotalWatts(), t, net, nil
	}

	bestW, t, net, err := evaluate(asg)
	if err != nil {
		return nil, err
	}
	res.Topology, res.Network = t, net
	res.Mapping = append(mapping.Assignment(nil), asg...)
	res.PowerTrailW = append(res.PowerTrailW, bestW)

	rng := rand.New(rand.NewSource(opt.Seed ^ 0x70e0))
	for round := 1; round < opt.Rounds; round++ {
		// Candidate mappings against the incumbent design's true mode
		// powers: continue from the incumbent, restart greedily, and a
		// randomised restart for diversity.
		mprob, err := mapping.NewProblem(profile.Counts, res.Network.ModeCostMatrix())
		if err != nil {
			return nil, err
		}
		seed := opt.Seed + int64(round)
		candidates := []mapping.Assignment{
			mprob.Taboo(res.Mapping, mapping.TabooOptions{Seed: seed, Iterations: opt.QAPIters}),
			mprob.Taboo(mprob.CenterGreedy(), mapping.TabooOptions{Seed: seed + 999, Iterations: opt.QAPIters}),
			mprob.Taboo(randomAssignment(cfg.N, rng), mapping.TabooOptions{Seed: seed + 1998, Iterations: opt.QAPIters}),
		}
		roundBest := bestW
		for _, cand := range candidates {
			w, t, net, err := evaluate(cand)
			if err != nil {
				return nil, err
			}
			if w < bestW {
				bestW = w
				res.Topology, res.Network = t, net
				res.Mapping = append(mapping.Assignment(nil), cand...)
			}
			if w < roundBest {
				roundBest = w
			}
		}
		res.PowerTrailW = append(res.PowerTrailW, roundBest)
	}
	return res, nil
}

func randomAssignment(n int, rng *rand.Rand) mapping.Assignment {
	return mapping.Assignment(rng.Perm(n))
}

func designFor(cfg power.Config, mapped *trace.Matrix, opt Options) (*topo.Topology, error) {
	if opt.Family == Distance {
		return topo.DistanceModes(cfg.N, opt.Modes)
	}
	return topo.CommAwareModes(mapped, cfg.Splitter, opt.Modes, fmt.Sprintf("joint%d", opt.Modes))
}
