// Package power assembles the device, waveguide and splitter models into
// end-to-end NoC power models: the base/power-topology mNoC, the
// clustered c_mNoC, and the ring-resonator rNoC baseline. It evaluates a
// traffic matrix (already permuted by the chosen thread mapping) under a
// power topology and returns the component breakdown the paper reports
// in Figure 10 (source power, O/E + E/O, electrical links and routers,
// ring heating, laser).
//
// Power accounting is flit-based: every flit occupies its source's
// waveguide for one clock cycle, during which the QD LED driver draws
// the mode's electrical power and every receiver reached by that mode
// performs O/E conversion. Average power is therefore
//
//	Σ_flits (per-flit active power · 1 cycle) / window cycles
//
// which makes the model energy proportional, exactly the property the
// paper highlights for mNoC ("applications with higher network
// utilization (e.g., radix) require high power").
package power

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mnoc/internal/device"
	"mnoc/internal/phys"
	"mnoc/internal/splitter"
	"mnoc/internal/telemetry"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
)

// Config bundles the device models of an mNoC-style network.
type Config struct {
	N        int
	Splitter splitter.Params
	QDLED    device.QDLED
	PD       device.Photodetector
	Elec     device.Electrical
}

// DefaultConfig returns the Table 3 configuration for an n-node crossbar.
func DefaultConfig(n int) Config {
	return Config{
		N:        n,
		Splitter: splitter.DefaultParams(n),
		QDLED:    device.DefaultQDLED(),
		PD:       device.DefaultPhotodetector(),
		Elec:     device.DefaultElectrical(),
	}
}

// WithMIOP returns a copy of the config with the photodetector mIOP
// changed and the splitter Pmin re-derived (used by the Fig. 2 sweep).
func (c Config) WithMIOP(miop phys.MicroWatts) Config {
	c.PD.MIOPUW = miop
	c.Splitter = splitter.ParamsFromDevices(c.Splitter.Layout, c.PD,
		device.DefaultChromophore(), 1.0, 0.2)
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("power: N = %d", c.N)
	}
	if c.Splitter.Layout.N != c.N {
		return fmt.Errorf("power: layout for %d nodes, config for %d", c.Splitter.Layout.N, c.N)
	}
	if err := c.Splitter.Validate(); err != nil {
		return err
	}
	if err := c.QDLED.Validate(); err != nil {
		return err
	}
	if err := c.PD.Validate(); err != nil {
		return err
	}
	return c.Elec.Validate()
}

// Breakdown is the Figure 10 component split, in µW. (Scale can turn
// it into an energy split — see EnergyUJ — but the canonical unit of
// the fields is power.)
type Breakdown struct {
	SourceUW     phys.MicroWatts // QD LED (mNoC) or laser-fed modulation is under LaserUW for rNoC
	OEUW         phys.MicroWatts // O/E and E/O conversion
	ElectricalUW phys.MicroWatts // buffers, electrical routers and links
	RingTrimUW   phys.MicroWatts // ring thermal trimming (rNoC only)
	LaserUW      phys.MicroWatts // off-chip laser (rNoC only)
}

// TotalUW sums all components.
func (b Breakdown) TotalUW() phys.MicroWatts {
	return b.SourceUW + b.OEUW + b.ElectricalUW + b.RingTrimUW + b.LaserUW
}

// TotalWatts is TotalUW in watts.
func (b Breakdown) TotalWatts() float64 { return b.TotalUW().Watts() }

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		SourceUW:     b.SourceUW + o.SourceUW,
		OEUW:         b.OEUW + o.OEUW,
		ElectricalUW: b.ElectricalUW + o.ElectricalUW,
		RingTrimUW:   b.RingTrimUW + o.RingTrimUW,
		LaserUW:      b.LaserUW + o.LaserUW,
	}
}

// Scale returns the breakdown scaled by f (used for energy = power·time).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		SourceUW:     b.SourceUW.Scale(f),
		OEUW:         b.OEUW.Scale(f),
		ElectricalUW: b.ElectricalUW.Scale(f),
		RingTrimUW:   b.RingTrimUW.Scale(f),
		LaserUW:      b.LaserUW.Scale(f),
	}
}

// Weighting selects how per-mode communication weights are chosen when
// sizing splitters (the U/W/S columns of Table 5).
type Weighting struct {
	// Fracs, if non-nil, fixes the same weight vector for every source
	// (e.g. uniform, or the 66%/33% sensitivity points). Must match the
	// topology's mode count and sum to 1.
	Fracs []float64
	// Sample, if non-nil, derives per-source weights from this traffic
	// matrix (the S4/S12 sampled designs). Exactly one of Fracs/Sample
	// must be set.
	Sample *trace.Matrix
}

// UniformWeighting is the "U" design point.
func UniformWeighting(modes int) Weighting {
	return Weighting{Fracs: topo.UniformWeights(modes)}
}

// SampledWeighting is the "S" design point for a profiled matrix.
func SampledWeighting(m *trace.Matrix) Weighting {
	return Weighting{Sample: m}
}

func (w Weighting) weightsFor(t *topo.Topology, src int) ([]float64, error) {
	switch {
	case w.Fracs != nil && w.Sample != nil:
		return nil, fmt.Errorf("power: weighting has both Fracs and Sample")
	case w.Fracs != nil:
		if len(w.Fracs) != t.Modes {
			return nil, fmt.Errorf("power: %d weight fracs for %d modes", len(w.Fracs), t.Modes)
		}
		return w.Fracs, nil
	case w.Sample != nil:
		return t.TrafficModeWeights(w.Sample, src)
	default:
		return nil, fmt.Errorf("power: empty weighting")
	}
}

// MNoC is a fully designed mNoC crossbar: a power topology plus the
// per-source splitter designs that implement it.
type MNoC struct {
	Cfg      Config
	Topology *topo.Topology
	Designs  []*splitter.Design
	// modeReach[src][m] is the number of receivers that detect light in
	// mode m (all destinations with mode <= m), used for O/E power.
	modeReach [][]int
	// weighting is the design-time mode weighting, kept so the design
	// can be re-solved (Resolve) after endpoint failures.
	weighting Weighting
	// tel is the optional metric sink (Instrument): Evaluate then
	// reports total and per-mode power draw. telh caches the resolved
	// metric handles (built lazily on the first instrumented Evaluate,
	// matching the registration timing Instrument documents) so the hot
	// Evaluate path skips the registry's name lookups.
	tel  *telemetry.Registry
	telh atomic.Pointer[telHandles]
	// plans[planAverage] and plans[planWorst] are EvaluateLoss's pricing
	// plans under each loss model (buildPlan), built on first use and
	// never written after publication.
	plans [2]atomic.Pointer[pricePlan]
}

// Indexes of MNoC.plans.
const (
	planAverage = iota
	planWorst
)

// pricePlan is what EvaluateLoss walks to price a traffic matrix under
// one loss model. Source s's destinations, the diagonal excluded, are
// cut into runs of consecutive destinations that share one mode: its
// runs are runs[rowStart[s]:rowStart[s+1]], each ending (exclusive) at
// end, and the next run starts where the last ended, one later if that
// is s itself. Entry s*modes+k of price is the QD LED electrical power
// (µW) of source s driving mode k, and of reach the number of
// receivers that mode k lights, as a float64.
type pricePlan struct {
	rowStart []int
	runs     []planRun
	price    []float64
	reach    []float64
}

// planRun is one run of a source's destinations in one mode.
type planRun struct {
	end  uint16
	mode uint8
}

// telHandles are the pre-resolved metric handles and the per-Evaluate
// mode scratch of one instrumented network. Evaluate may run
// concurrently (the serve path), so the scratch lives in a pool rather
// than on the struct.
type telHandles struct {
	evals   *telemetry.Counter
	watts   *telemetry.Histogram
	mode    []*telemetry.Histogram
	scratch sync.Pool // *[]float64, len == Topology.Modes
}

// Instrument attaches a metric registry: every Evaluate observes the
// power.watts histogram, bumps power.evaluations, and records the
// per-mode source draw in the power.mode<k>.source_uw histograms. A
// nil registry detaches. Not safe to call concurrently with Evaluate.
func (m *MNoC) Instrument(reg *telemetry.Registry) {
	m.tel = reg
	m.telh.Store(nil)
}

// telHandles returns the cached metric handles, resolving them on the
// first instrumented Evaluate. Handle resolution is idempotent (the
// registry returns the same handle per name), so a race between two
// first Evaluates at worst builds the struct twice.
func (m *MNoC) telHandles() *telHandles {
	if h := m.telh.Load(); h != nil {
		return h
	}
	modes := m.Topology.Modes
	h := &telHandles{
		evals: m.tel.Counter("power.evaluations"),
		watts: m.tel.Histogram("power.watts", PowerWattsBuckets...),
		mode:  make([]*telemetry.Histogram, modes),
	}
	h.scratch.New = func() any { s := make([]float64, modes); return &s }
	for mode := range h.mode {
		h.mode[mode] = m.tel.Histogram(fmt.Sprintf("power.mode%d.source_uw", mode))
	}
	m.telh.CompareAndSwap(nil, h)
	return m.telh.Load()
}

// PowerWattsBuckets are the bucket bounds (watts) of power.watts.
var PowerWattsBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}

// NewMNoC designs the splitters for every source of the topology under
// the given design-time weighting.
func NewMNoC(cfg Config, t *topo.Topology, w Weighting) (*MNoC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.N != cfg.N {
		return nil, fmt.Errorf("power: topology for %d nodes, config for %d", t.N, cfg.N)
	}
	m := &MNoC{
		Cfg:       cfg,
		Topology:  t,
		Designs:   make([]*splitter.Design, cfg.N),
		modeReach: make([][]int, cfg.N),
		weighting: w,
	}
	for src := 0; src < cfg.N; src++ {
		weights, err := w.weightsFor(t, src)
		if err != nil {
			return nil, err
		}
		d, err := splitter.Solve(cfg.Splitter, src, t.ModeOf[src], weights)
		if err != nil {
			return nil, fmt.Errorf("power: designing source %d: %w", src, err)
		}
		m.Designs[src] = d

		sizes := t.ModeSizes(src)
		reach := make([]int, t.Modes)
		run := 0
		for mode, sz := range sizes {
			run += sz
			reach[mode] = run
		}
		m.modeReach[src] = reach
	}
	return m, nil
}

// Resolve re-solves every source's splitter design with the non-alive
// endpoints excluded: dead receivers get zero taps, no power is
// budgeted to reach them, and they stop drawing O/E power. This is the
// last-resort recovery action of the graceful-degradation controller —
// after permanent receiver deaths, "more is less" applies in reverse:
// removing destinations shrinks every mode's injected power. The
// topology and the surviving pairs' mode assignments are unchanged, so
// drive tables stay index-compatible.
func (m *MNoC) Resolve(alive []bool) (*MNoC, error) {
	if len(alive) != m.Cfg.N {
		return nil, fmt.Errorf("power: %d alive entries for %d nodes", len(alive), m.Cfg.N)
	}
	excluded := make([]bool, m.Cfg.N)
	all := true
	for i, a := range alive {
		excluded[i] = !a
		if !a {
			all = false
		}
	}
	if all {
		return m, nil
	}
	t := m.Topology
	out := &MNoC{
		Cfg:       m.Cfg,
		Topology:  t,
		Designs:   make([]*splitter.Design, m.Cfg.N),
		modeReach: make([][]int, m.Cfg.N),
		weighting: m.weighting,
	}
	for src := 0; src < m.Cfg.N; src++ {
		if !alive[src] {
			// A dead source keeps its old design: it no longer
			// transmits, so its chain is irrelevant, but keeping it
			// preserves indexing for accounting code.
			out.Designs[src] = m.Designs[src]
			out.modeReach[src] = m.modeReach[src]
			continue
		}
		reachable := 0
		for dst := range alive {
			if dst != src && alive[dst] {
				reachable++
			}
		}
		if reachable == 0 {
			// Nothing left to reach; keep the old chain rather than
			// fail the whole re-plan.
			out.Designs[src] = m.Designs[src]
			out.modeReach[src] = make([]int, t.Modes)
			continue
		}
		weights, err := m.weighting.weightsFor(t, src)
		if err != nil {
			return nil, err
		}
		d, err := splitter.SolveMasked(m.Cfg.Splitter, src, t.ModeOf[src], weights, excluded)
		if err != nil {
			return nil, fmt.Errorf("power: re-solving source %d: %w", src, err)
		}
		out.Designs[src] = d

		reach := make([]int, t.Modes)
		for dst, mode := range t.ModeOf[src] {
			if dst == src || !alive[dst] {
				continue
			}
			for hi := mode; hi < t.Modes; hi++ {
				reach[hi]++
			}
		}
		out.modeReach[src] = reach
	}
	return out, nil
}

// LossModel selects how waveguide insertion loss is charged when a
// design is priced. The paper's accounting (and this package's
// default) charges each destination its own path transmission; the
// optical-crossbar comparison literature instead budgets every
// destination at the source's longest-path loss (Li et al.,
// arXiv:1512.07492), which is pessimistic but topology-comparable.
type LossModel string

const (
	// LossAverage is the per-destination path-loss accounting the
	// splitter solver optimises for (Appendix A).
	LossAverage LossModel = "average"
	// LossWorst charges every destination the longest-path insertion
	// loss of its source's serpentine.
	LossWorst LossModel = "worst"
)

// ParseLossModel maps a wire/flag spelling onto a LossModel. The empty
// string means LossAverage.
func ParseLossModel(s string) (LossModel, error) {
	switch s {
	case "", string(LossAverage):
		return LossAverage, nil
	case string(LossWorst):
		return LossWorst, nil
	}
	return "", fmt.Errorf("power: unknown loss model %q (want %q or %q)", s, LossAverage, LossWorst)
}

// WithLossModel returns the network re-priced under the given loss
// accounting. LossAverage returns the receiver unchanged; LossWorst
// returns a view sharing the topology and fabricated splitter chains
// but with every source's mode powers re-derived at its longest-path
// transmission. The view carries no metric sink — it is an accounting
// overlay, not a new design.
func (m *MNoC) WithLossModel(model LossModel) (*MNoC, error) {
	switch model {
	case "", LossAverage:
		return m, nil
	case LossWorst:
	default:
		return nil, fmt.Errorf("power: unknown loss model %q", model)
	}
	out := &MNoC{
		Cfg:       m.Cfg,
		Topology:  m.Topology,
		Designs:   make([]*splitter.Design, len(m.Designs)),
		modeReach: m.modeReach,
		weighting: m.weighting,
	}
	for src, d := range m.Designs {
		wc, err := splitter.WorstCaseDesign(m.Cfg.Splitter, d, m.Topology.ModeOf[src])
		if err != nil {
			return nil, fmt.Errorf("power: worst-case repricing source %d: %w", src, err)
		}
		out.Designs[src] = wc
	}
	return out, nil
}

// SourceElectricalUW is the QD LED driver power while src transmits
// in the given mode.
func (m *MNoC) SourceElectricalUW(src, mode int) phys.MicroWatts {
	return m.Cfg.QDLED.ElectricalPower(m.Designs[src].ModePowerUW[mode])
}

// ModeCostMatrix is the thread-mapping QAP cost of the designed
// network: entry [c1][c2] is the QD LED electrical power (µW) of c1
// transmitting in the mode that reaches c2, and 0 on the diagonal and
// wherever the topology assigns no mode.
func (m *MNoC) ModeCostMatrix() [][]float64 {
	n := m.Cfg.N
	cost := make([][]float64, n)
	flat := make([]float64, n*n)
	for c1 := range cost {
		cost[c1], flat = flat[:n:n], flat[n:]
		for c2, mode := range m.Topology.ModeOf[c1] {
			if mode >= 0 {
				cost[c1][c2] = float64(m.SourceElectricalUW(c1, mode))
			}
		}
	}
	return cost
}

// Evaluate computes the average power of carrying the traffic matrix mtx
// (flit counts, core-indexed — apply the thread mapping with
// Matrix.Permute first) over a window of `cycles` clock cycles, under
// the paper's per-destination loss accounting.
func (m *MNoC) Evaluate(mtx *trace.Matrix, cycles float64) (Breakdown, error) {
	return m.EvaluateLoss(mtx, cycles, LossAverage)
}

// EvaluateLoss is Evaluate under an explicit insertion-loss model. It
// equals WithLossModel(model) followed by Evaluate bit for bit, without
// building the repriced view. Each model prices from a plan built once
// per network on first use (buildPlan): the per-source runs of
// destinations sharing a mode, and each (source, mode)'s electrical
// price and receiver count. The loop walks rows, then runs, then cells,
// so price and reach are constants of a run and the per-mode source
// draw the telemetry reports accumulates in a register; every sum is
// added in destination order, as a per-cell walk adds it. As with the
// view, a worst-case evaluation reports to no metric sink.
func (m *MNoC) EvaluateLoss(mtx *trace.Matrix, cycles float64, model LossModel) (Breakdown, error) {
	if mtx.N != m.Cfg.N {
		return Breakdown{}, fmt.Errorf("power: matrix for %d nodes, network for %d", mtx.N, m.Cfg.N)
	}
	if cycles <= 0 {
		return Breakdown{}, fmt.Errorf("power: window of %g cycles", cycles)
	}
	which := planAverage
	switch model {
	case "", LossAverage:
	case LossWorst:
		which = planWorst
	default:
		return Breakdown{}, fmt.Errorf("power: unknown loss model %q", model)
	}
	p := m.plans[which].Load()
	if p == nil {
		var err error
		if p, err = m.buildPlan(which); err != nil {
			return Breakdown{}, err
		}
	}
	modes := m.Topology.Modes
	oePerReceiver := float64(m.Cfg.PD.OEPowerUW())
	var srcSum, oeSum, flits float64
	var th *telHandles
	var modeSrc []float64
	var scratchp *[]float64
	if m.tel != nil && which == planAverage {
		th = m.telHandles()
		scratchp = th.scratch.Get().(*[]float64)
		modeSrc = *scratchp
		for i := range modeSrc {
			modeSrc[i] = 0
		}
	}
	for s, row := range mtx.Counts {
		price := p.price[s*modes : (s+1)*modes]
		reach := p.reach[s*modes : (s+1)*modes]
		lo := 0
		for _, r := range p.runs[p.rowStart[s]:p.rowStart[s+1]] {
			if lo == s {
				lo++
			}
			hi := int(r.end)
			pr, rc := price[r.mode], reach[r.mode]
			var modeSum float64
			if modeSrc != nil {
				modeSum = modeSrc[r.mode]
			}
			for _, v := range row[lo:hi] {
				if v == 0 {
					continue
				}
				src := v * pr
				srcSum += src
				modeSum += src
				oeSum += v * rc * oePerReceiver
				flits += v
			}
			if modeSrc != nil {
				modeSrc[r.mode] = modeSum
			}
			lo = hi
		}
	}
	// Electrical buffering at the two endpoints of every flit.
	elecPJ := flits * 2 * m.Cfg.Elec.BufferPJPerFlit
	b := Breakdown{
		SourceUW:     phys.MicroWatts(srcSum / cycles),
		OEUW:         phys.MicroWatts(oeSum / cycles),
		ElectricalUW: pjOverCyclesToUW(elecPJ, cycles),
	}
	if th != nil {
		th.evals.Inc()
		th.watts.Observe(b.TotalWatts())
		for mode, uw := range modeSrc {
			th.mode[mode].Observe(uw / cycles)
		}
		th.scratch.Put(scratchp)
	}
	return b, nil
}

// buildPlan builds and publishes plans[which], returning the published
// plan. The worst-case plan shares the average plan's runs and reach
// (building that first if need be) and prices each mode from
// worstModePowers. Like telHandles, a race between two first calls at
// worst builds the (identical) plan twice.
func (m *MNoC) buildPlan(which int) (*pricePlan, error) {
	base := m.plans[planAverage].Load()
	if base == nil {
		var err error
		if base, err = m.averagePlan(); err != nil {
			return nil, err
		}
		m.plans[planAverage].CompareAndSwap(nil, base)
		base = m.plans[planAverage].Load()
	}
	if which == planAverage {
		return base, nil
	}
	price, err := m.worstModePowers()
	if err != nil {
		return nil, err
	}
	m.plans[planWorst].CompareAndSwap(nil, &pricePlan{
		rowStart: base.rowStart, runs: base.runs, price: price, reach: base.reach,
	})
	return m.plans[planWorst].Load(), nil
}

// averagePlan builds the LossAverage plan from the topology, the
// designed mode powers and the mode reach.
func (m *MNoC) averagePlan() (*pricePlan, error) {
	t := m.Topology
	n, modes := t.N, t.Modes
	if n > math.MaxUint16 || modes > math.MaxUint8+1 {
		return nil, fmt.Errorf("power: a pricing plan holds at most %d nodes and %d modes, network has %d and %d",
			math.MaxUint16, math.MaxUint8+1, n, modes)
	}
	p := &pricePlan{
		rowStart: make([]int, n+1),
		price:    make([]float64, n*modes),
		reach:    make([]float64, n*modes),
	}
	// A run ends after destination d when d is the row's last, the next
	// destination is the diagonal, or the next one is in another mode.
	endsRun := func(row []int, s, d int) bool {
		return d+1 == n || d+1 == s || row[d+1] != row[d]
	}
	total := 0
	for s, row := range t.ModeOf {
		for d := range row {
			if d != s && endsRun(row, s, d) {
				total++
			}
		}
	}
	p.runs = make([]planRun, 0, total)
	for s, row := range t.ModeOf {
		powers, reach := m.Designs[s].ModePowerUW, m.modeReach[s]
		if len(powers) != modes || len(reach) != modes {
			return nil, fmt.Errorf("power: source %d prices %d modes and reaches %d, topology has %d",
				s, len(powers), len(reach), modes)
		}
		for k := range modes {
			p.price[s*modes+k] = float64(m.Cfg.QDLED.ElectricalPower(powers[k]))
			p.reach[s*modes+k] = float64(reach[k])
		}
		for d, mode := range row {
			if d != s && endsRun(row, s, d) {
				p.runs = append(p.runs, planRun{end: uint16(d + 1), mode: uint8(mode)})
			}
		}
		p.rowStart[s+1] = len(p.runs)
	}
	return p, nil
}

// worstModePowers returns the LossWorst electrical price of every
// (source, mode), entry s*modes+k, derived from
// WithLossModel(LossWorst)'s mode powers; the view itself is dropped.
func (m *MNoC) worstModePowers() ([]float64, error) {
	view, err := m.WithLossModel(LossWorst)
	if err != nil {
		return nil, err
	}
	modes := m.Topology.Modes
	table := make([]float64, len(view.Designs)*modes)
	for s, d := range view.Designs {
		if len(d.ModePowerUW) != modes {
			return nil, fmt.Errorf("power: source %d prices %d modes, topology has %d", s, len(d.ModePowerUW), modes)
		}
		for k, pw := range d.ModePowerUW {
			table[s*modes+k] = float64(m.Cfg.QDLED.ElectricalPower(pw))
		}
	}
	return table, nil
}

// pjOverCyclesToUW converts a total energy in pJ spent during a window
// of `cycles` 5 GHz clock cycles into average power in µW
// (1 pJ/ns = 1 mW = 1000 µW; one cycle is 1/ClockGHz ns).
func pjOverCyclesToUW(pj, cycles float64) phys.MicroWatts {
	windowNS := cycles / phys.ClockGHz
	return phys.MicroWatts(pj / windowNS * 1000)
}
