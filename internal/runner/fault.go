package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"mnoc/internal/dynamic"
	"mnoc/internal/exp"
	"mnoc/internal/fanout"
	"mnoc/internal/fault"
	"mnoc/internal/mapping"
	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/stats"
	"mnoc/internal/telemetry"
	"mnoc/internal/workload"
)

// FaultPoint is one sweep point: the schedule both policies saw and
// the two run results.
type FaultPoint struct {
	Scale    float64
	Schedule *fault.Schedule
	Baseline *dynamic.FaultResult
	Recovery *dynamic.FaultResult
}

// FaultSweepResult is a completed fault-intensity sweep.
type FaultSweepResult struct {
	Config  FaultConfig
	Bench   string // resolved benchmark name
	Modes   int
	Packets int // packets offered per point
	Points  []FaultPoint
}

// FaultSweep runs the degradation sweep on the runner's store, worker
// pool and telemetry sinks.
func (r *Runner) FaultSweep(ctx context.Context, fc FaultConfig) (*FaultSweepResult, error) {
	return FaultSweep(ctx, r.store, r.workers, fc, r.tel, r.tracer)
}

// FaultSweep runs the degradation sweep: for each fault-rate
// multiplier, replay the same deterministic schedule under the
// fault-oblivious and the recovery policies, isolating the recovery
// ladder. Points run concurrently on up to `workers` goroutines;
// results come back in scale order, so output is deterministic for a
// fixed config. Once ctx is done no further point starts (a started
// point runs to completion) and the sweep returns the ctx error.
// reg/tracer may be nil; with a registry each point counts into
// fault.points (failures into fault.point_errors) and records a span. A failing point's error names the point — index,
// benchmark, scale, policy — so a joined multi-point failure stays
// attributable.
func FaultSweep(ctx context.Context, store artifact.Store, workers int, fc FaultConfig, reg *telemetry.Registry, tracer *telemetry.Tracer) (*FaultSweepResult, error) {
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	net, err := exp.BuildDesign(power.DefaultConfig(fc.N), exp.DesignDist2, nil)
	if err != nil {
		return nil, fmt.Errorf("runner: fault sweep network: %w", err)
	}
	b, err := workload.Resolve(fc.Bench)
	if err != nil {
		return nil, fmt.Errorf("runner: fault sweep benchmark %q: %w", fc.Bench, err)
	}
	tr, err := CachedTrace(store, b, fc.N, fc.Cycles, fc.Flits, fc.Seed)
	if err != nil {
		return nil, err
	}
	initial := mapping.Identity(fc.N)

	scales := fc.Scales
	var schedules []*fault.Schedule
	if fc.SchedulePath != "" {
		f, err := os.Open(fc.SchedulePath)
		if err != nil {
			return nil, fmt.Errorf("runner: opening fault schedule: %w", err)
		}
		s, err := fault.Parse(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: parsing fault schedule %s: %w", fc.SchedulePath, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("runner: closing fault schedule: %w", err)
		}
		schedules = []*fault.Schedule{s}
		scales = []float64{1}
	} else {
		for _, sc := range scales {
			s, err := fault.DefaultInjectorConfig(fc.Seed).Scale(sc).Generate(fc.N, fc.Cycles)
			if err != nil {
				return nil, fmt.Errorf("runner: generating fault schedule at scale %g: %w", sc, err)
			}
			schedules = append(schedules, s)
		}
	}

	res := &FaultSweepResult{
		Config:  fc,
		Bench:   b.Name,
		Modes:   net.Topology.Modes,
		Packets: len(tr.Packets),
		Points:  make([]FaultPoint, len(schedules)),
	}
	errs := make([]error, len(schedules))
	pointsC := reg.Counter("fault.points")
	pointErrsC := reg.Counter("fault.point_errors")
	fanout.Run(ctx, len(schedules), workers, func(_, i int) {
		// wrap keeps the point attributable once errors.Join merges
		// the sweep: which point, which workload, which policy.
		wrap := func(policy string, err error) error {
			return fmt.Errorf("fault point %d/%d (bench %s, scale %g, %s): %w",
				i+1, len(schedules), b.Name, scales[i], policy, err)
		}
		sp := tracer.StartSpan("fault", "point").
			Attr("bench", b.Name).
			Attr("scale", fmt.Sprintf("%g", scales[i]))
		defer sp.End()
		pointsC.Inc()
		sched := schedules[i]
		base, err := dynamic.RunWithFaults(net, tr, initial, sched, dynamic.ObliviousPolicy())
		if err != nil {
			pointErrsC.Inc()
			errs[i] = wrap("oblivious", err)
			return
		}
		rec, err := dynamic.RunWithFaults(net, tr, initial, sched, dynamic.DefaultRecoveryPolicy())
		if err != nil {
			pointErrsC.Inc()
			errs[i] = wrap("recovery", err)
			return
		}
		res.Points[i] = FaultPoint{Scale: scales[i], Schedule: sched, Baseline: base, Recovery: rec}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("runner: fault sweep: %w", err)
	}
	return res, nil
}

// Curve converts the sweep into a reliability curve.
func (res *FaultSweepResult) Curve() *stats.ReliabilityCurve {
	curve := &stats.ReliabilityCurve{}
	for _, p := range res.Points {
		curve.Baseline = append(curve.Baseline, reliabilityPoint(p.Scale, p.Baseline))
		curve.Recovery = append(curve.Recovery, reliabilityPoint(p.Scale, p.Recovery))
	}
	return curve
}

// Render writes the sweep report (per-point recovery summary, then
// the reliability curve) in the historical mnoc-fault text format.
func (res *FaultSweepResult) Render(w io.Writer, verbose bool) error {
	for _, p := range res.Points {
		rec := p.Recovery
		if _, err := fmt.Fprintf(w,
			"scale %.2f: %d fault events; recovery: %d retries, %d escalations, %d guard resizes, %d migrations, %d re-solves (final guard %.2f dB)\n",
			p.Scale, len(p.Schedule.Faults), rec.Retries, rec.Escalations,
			rec.GuardResizes, rec.Migrations, rec.Replans, rec.FinalGuardDB); err != nil {
			return err
		}
		if verbose {
			for _, a := range rec.Actions {
				if _, err := fmt.Fprintf(w, "  [cycle %d] %s\n", a.Cycle, a.What); err != nil {
					return err
				}
			}
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := res.Curve().Render(w); err != nil {
		return fmt.Errorf("runner: rendering reliability curve: %w", err)
	}
	return nil
}

// SaveSchedule writes the last sweep point's fault schedule to path.
func (res *FaultSweepResult) SaveSchedule(path string) error {
	if len(res.Points) == 0 {
		return fmt.Errorf("runner: empty sweep")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runner: creating schedule file: %w", err)
	}
	if err := res.Points[len(res.Points)-1].Schedule.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("runner: writing schedule %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runner: closing schedule %s: %w", path, err)
	}
	return nil
}

// reliabilityPoint converts a run result into a curve point.
func reliabilityPoint(scale float64, r *dynamic.FaultResult) stats.ReliabilityPoint {
	return stats.ReliabilityPoint{
		Scale:     scale,
		Offered:   r.Offered,
		Delivered: r.Delivered,
		Retries:   r.Retries,
		PowerW:    r.AvgPowerW,
	}
}
