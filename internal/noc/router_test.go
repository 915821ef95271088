// A cycle-stepped input-queued electrical router with the paper's
// 4-stage pipeline (Table 2: "Router pipeline stages: 4 cycles"), kept
// as a test oracle for the clustered models. Clustered abstracts each
// router as RouterPipelineCycles plus a VC-parallel reservation; the
// tests below confirm a lightly loaded flit takes exactly those 4
// cycles in the detailed model, and that saturation throughput is one
// flit per output per cycle.
//
// Pipeline stages: BW (buffer write) → RC/VA (route computation and
// virtual-channel allocation) → SA (switch allocation, where output
// conflicts arbitrate round-robin) → ST (switch traversal, the flit
// leaves). A flit therefore departs no earlier than 4 cycles after
// injection, later under contention or backpressure.
package noc

import (
	"fmt"
	"testing"
)

// routerConfig sizes the detailed router.
type routerConfig struct {
	// Ports is the number of input (and output) ports.
	Ports int
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the per-VC buffer capacity in flits.
	BufDepth int
}

// defaultRouterConfig matches the clustered models: 4 VCs and a modest
// 8-flit buffer per VC.
func defaultRouterConfig(ports int) routerConfig {
	return routerConfig{Ports: ports, VCs: 4, BufDepth: 8}
}

func (c routerConfig) validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("router: %d ports", c.Ports)
	}
	if c.VCs < 1 || c.BufDepth < 1 {
		return fmt.Errorf("router: %d VCs x %d buffers", c.VCs, c.BufDepth)
	}
	return nil
}

// flit is the unit of switching.
type flit struct {
	// ID identifies the flit in departures (caller-assigned).
	ID uint64
	// Out is the requested output port.
	Out int
}

// departure reports a flit leaving an output port.
type departure struct {
	Flit  flit
	Out   int
	Cycle uint64
}

// pipelineCycles is the detailed model's minimum injection→departure
// latency, derived from its stages rather than from RouterPipelineCycles.
const pipelineCycles = 4

type bufferedFlit struct {
	flit flit
	// ready is the first cycle the flit may win switch allocation
	// (injection cycle + the BW/RC/VA stages).
	ready uint64
}

// pipelineRouter is the cycle-stepped model. Drive it by calling inject
// (any number of times per cycle) and then step once per cycle.
type pipelineRouter struct {
	cfg   routerConfig
	cycle uint64
	// queues[port][vc] is a FIFO of buffered flits.
	queues [][][]bufferedFlit
	// rrInput[out] is the round-robin pointer over (port, vc) pairs for
	// switch allocation at each output.
	rrInput []int
}

func newPipelineRouter(cfg routerConfig) (*pipelineRouter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &pipelineRouter{cfg: cfg, rrInput: make([]int, cfg.Ports)}
	r.queues = make([][][]bufferedFlit, cfg.Ports)
	for p := range r.queues {
		r.queues[p] = make([][]bufferedFlit, cfg.VCs)
	}
	return r, nil
}

// inject offers a flit to input port/vc in the current cycle. It
// returns false when the VC buffer is full (backpressure) or the flit's
// output is invalid.
func (r *pipelineRouter) inject(port, vc int, f flit) bool {
	if port < 0 || port >= r.cfg.Ports || vc < 0 || vc >= r.cfg.VCs {
		return false
	}
	if f.Out < 0 || f.Out >= r.cfg.Ports {
		return false
	}
	q := r.queues[port][vc]
	if len(q) >= r.cfg.BufDepth {
		return false
	}
	// BW this cycle; RC/VA take two more; SA may fire at cycle+3 and
	// the flit traverses (departs) at cycle+4.
	r.queues[port][vc] = append(q, bufferedFlit{flit: f, ready: r.cycle + 3})
	return true
}

// step advances one cycle: each output port grants at most one
// SA-ready head flit (round-robin over inputs), which departs this
// cycle. Departures are returned in output-port order.
func (r *pipelineRouter) step() []departure {
	r.cycle++
	var out []departure
	lanes := r.cfg.Ports * r.cfg.VCs
	for o := 0; o < r.cfg.Ports; o++ {
		granted := -1
		for k := 0; k < lanes; k++ {
			lane := (r.rrInput[o] + k) % lanes
			p, v := lane/r.cfg.VCs, lane%r.cfg.VCs
			q := r.queues[p][v]
			if len(q) == 0 {
				continue
			}
			head := q[0]
			if head.flit.Out != o || head.ready >= r.cycle {
				continue
			}
			granted = lane
			r.queues[p][v] = q[1:]
			out = append(out, departure{Flit: head.flit, Out: o, Cycle: r.cycle})
			break
		}
		if granted >= 0 {
			r.rrInput[o] = (granted + 1) % lanes
		}
	}
	return out
}

// occupancy returns the number of buffered flits.
func (r *pipelineRouter) occupancy() int {
	n := 0
	for _, port := range r.queues {
		for _, q := range port {
			n += len(q)
		}
	}
	return n
}

// drain steps the router until empty and returns all departures; it
// gives up after maxCycles to avoid hanging on a bug.
func (r *pipelineRouter) drain(maxCycles int) ([]departure, error) {
	var all []departure
	for i := 0; i < maxCycles; i++ {
		all = append(all, r.step()...)
		if r.occupancy() == 0 {
			return all, nil
		}
	}
	return nil, fmt.Errorf("router: %d flits still buffered after %d cycles", r.occupancy(), maxCycles)
}

func mustNewRouter(t *testing.T, ports int) *pipelineRouter {
	t.Helper()
	r, err := newPipelineRouter(defaultRouterConfig(ports))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterConfigValidate(t *testing.T) {
	if err := defaultRouterConfig(5).validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []routerConfig{
		{Ports: 1, VCs: 4, BufDepth: 8},
		{Ports: 4, VCs: 0, BufDepth: 8},
		{Ports: 4, VCs: 4, BufDepth: 0},
	} {
		if err := c.validate(); err == nil {
			t.Errorf("validate(%+v) = nil", c)
		}
	}
	if _, err := newPipelineRouter(routerConfig{}); err == nil {
		t.Error("newPipelineRouter with zero config succeeded")
	}
}

// TestRouterUncontendedLatencyIsFourCycles validates the Table 2
// abstraction the clustered models use: a lone flit crosses the
// detailed router in exactly RouterPipelineCycles.
func TestRouterUncontendedLatencyIsFourCycles(t *testing.T) {
	r := mustNewRouter(t, 5)
	if !r.inject(0, 0, flit{ID: 1, Out: 3}) {
		t.Fatal("inject refused")
	}
	inj := r.cycle
	for i := 0; i < 10; i++ {
		deps := r.step()
		if len(deps) == 1 {
			if got := deps[0].Cycle - inj; got != pipelineCycles {
				t.Fatalf("latency %d cycles, want %d", got, pipelineCycles)
			}
			if deps[0].Out != 3 || deps[0].Flit.ID != 1 {
				t.Fatalf("wrong departure: %+v", deps[0])
			}
			if pipelineCycles != RouterPipelineCycles {
				t.Fatalf("detailed model (%d) and abstract constant (%d) diverged",
					pipelineCycles, RouterPipelineCycles)
			}
			return
		}
	}
	t.Fatal("flit never departed")
}

// TestRouterThroughputOneFlitPerOutputPerCycle: saturating distinct
// outputs yields full parallel throughput.
func TestRouterThroughputOneFlitPerOutputPerCycle(t *testing.T) {
	r := mustNewRouter(t, 4)
	// Each input sends 8 flits to its own dedicated output.
	for p := 0; p < 4; p++ {
		for k := 0; k < 8; k++ {
			if !r.inject(p, k%4, flit{ID: uint64(p*100 + k), Out: p}) {
				t.Fatalf("inject refused at %d/%d", p, k)
			}
		}
	}
	deps, err := r.drain(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 32 {
		t.Fatalf("%d departures, want 32", len(deps))
	}
	// 8 flits per output over 8 consecutive busy cycles + pipeline.
	last := deps[len(deps)-1].Cycle
	if last > pipelineCycles+8 {
		t.Errorf("drain finished at cycle %d, want <= %d", last, pipelineCycles+8)
	}
}

// TestRouterOutputConflictSerialises: two inputs fighting for one
// output alternate fairly.
func TestRouterOutputConflictSerialises(t *testing.T) {
	r := mustNewRouter(t, 4)
	for k := 0; k < 6; k++ {
		if !r.inject(0, 0, flit{ID: uint64(100 + k), Out: 2}) {
			t.Fatal("inject refused")
		}
		if !r.inject(1, 0, flit{ID: uint64(200 + k), Out: 2}) {
			t.Fatal("inject refused")
		}
	}
	deps, err := r.drain(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 12 {
		t.Fatalf("%d departures", len(deps))
	}
	// One flit per cycle on the contested output.
	for i := 1; i < len(deps); i++ {
		if deps[i].Cycle != deps[i-1].Cycle+1 {
			t.Fatalf("output bubble between %d and %d", deps[i-1].Cycle, deps[i].Cycle)
		}
	}
	// Round-robin: the two inputs alternate.
	fromA := 0
	for i := 0; i < 4; i++ {
		if deps[i].Flit.ID < 200 {
			fromA++
		}
	}
	if fromA != 2 {
		t.Errorf("first four grants had %d from input 0, want 2 (round robin)", fromA)
	}
}

func TestRouterBackpressure(t *testing.T) {
	r, err := newPipelineRouter(routerConfig{Ports: 2, VCs: 1, BufDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if !r.inject(0, 0, flit{ID: uint64(k), Out: 1}) {
			t.Fatalf("inject %d refused below capacity", k)
		}
	}
	if r.inject(0, 0, flit{ID: 99, Out: 1}) {
		t.Error("inject accepted into a full buffer")
	}
	// After a departure there is room again.
	for i := 0; i < pipelineCycles+1; i++ {
		r.step()
	}
	if !r.inject(0, 0, flit{ID: 100, Out: 1}) {
		t.Error("inject refused after drain")
	}
}

func TestRouterInjectRejectsBadCoordinates(t *testing.T) {
	r := mustNewRouter(t, 3)
	if r.inject(-1, 0, flit{Out: 1}) || r.inject(3, 0, flit{Out: 1}) {
		t.Error("bad port accepted")
	}
	if r.inject(0, 99, flit{Out: 1}) {
		t.Error("bad VC accepted")
	}
	if r.inject(0, 0, flit{Out: 9}) {
		t.Error("bad output accepted")
	}
}

func TestRouterDrainGivesUp(t *testing.T) {
	r := mustNewRouter(t, 2)
	// A flit injected at a future-ready time cannot drain in 1 cycle.
	r.inject(0, 0, flit{ID: 1, Out: 1})
	if _, err := r.drain(1); err == nil {
		t.Error("drain(1) succeeded despite pipeline depth")
	}
}

func TestRouterDeterministicUnderIdenticalDriving(t *testing.T) {
	run := func() []departure {
		r := mustNewRouter(t, 4)
		var all []departure
		for c := 0; c < 30; c++ {
			if c < 10 {
				r.inject(c%4, c%2, flit{ID: uint64(c), Out: (c + 1) % 4})
			}
			all = append(all, r.step()...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("departure %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
