package main

import (
	"context"
	"time"

	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/telemetry"
	"mnoc/internal/trace"
)

// stages times a traced walk's sequential stages, each a child span of
// the walk's root, and keeps every stage's total wall by name.
type stages struct {
	rec  *recorder
	root int
	id   int
	wall map[string]time.Duration
}

func newStages(rec *recorder, root, id int) *stages {
	return &stages{rec: rec, root: root, id: id, wall: map[string]time.Duration{}}
}

// time runs fn as one call of the named stage; fn gets its span ID.
func (s *stages) time(layer, name string, fn func(span int) error) error {
	end, span := s.rec.start(s.root, s.id, layer, name)
	begin := time.Now()
	err := fn(span)
	s.wall[name] += time.Since(begin)
	end()
	return err
}

// stageStep is one stage: a public call made once per argument.
type stageStep struct {
	layer, name string
	args        []string
	call        func(span int, arg string) error
}

// runSteps runs the steps in order and returns how many accesses the
// simulator made meanwhile (only the Performance stage simulates).
func (s *stages) runSteps(reg *telemetry.Registry, steps []stageStep) (uint64, error) {
	accesses := reg.Counter("sim.accesses")
	before := accesses.Value()
	for _, st := range steps {
		for _, a := range st.args {
			if err := s.time(st.layer, st.name, func(span int) error { return st.call(span, a) }); err != nil {
				return 0, err
			}
		}
	}
	return accesses.Value() - before, nil
}

// report writes each stage's wall as <stage>_ms, the walk's total, the
// part of it no stage covers, and the host time per simulated access.
func (s *stages) report(m map[string]float64, total time.Duration, accesses uint64) {
	var staged time.Duration
	for name, d := range s.wall {
		m[name+"_ms"] = ms(d)
		staged += d
	}
	m["trace.total_ms"] = ms(total)
	m["exp.unattributed_ms"] = ms(total - staged)
	if accesses > 0 {
		m["sim.ns_per_access"] = float64(s.wall["sim.performance"].Nanoseconds()) / float64(accesses)
	}
}

// evaluateDesign prices one design kind, repriced under loss, on every
// benchmark's traffic with MNoC.Evaluate, one span per call, and returns
// the call times in microseconds.
func evaluateDesign(ctx context.Context, c *exp.Context, kind string, loss power.LossModel,
	traffic func(string) ([]*trace.Matrix, error), rec *recorder, parent, id int) ([]float64, error) {
	net, err := c.DesignNetwork(ctx, kind)
	if err == nil {
		net, err = net.WithLossModel(loss)
	}
	if err != nil {
		return nil, err
	}
	var us []float64
	for _, b := range c.Benchmarks() {
		ms, err := traffic(b.Name)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			end, _ := rec.start(parent, id, "power", "power.evaluate.call")
			begin := time.Now()
			_, err := net.Evaluate(m, c.Opt.Cycles)
			us = append(us, float64(time.Since(begin))/float64(time.Microsecond))
			end()
			if err != nil {
				return nil, err
			}
		}
	}
	return us, nil
}
