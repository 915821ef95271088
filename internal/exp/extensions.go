package exp

import (
	"context"
	"fmt"

	"mnoc/internal/coherence"
	"mnoc/internal/dynamic"
	"mnoc/internal/joint"
	"mnoc/internal/mapping"
	"mnoc/internal/noc"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/signal"
	"mnoc/internal/sim"
	"mnoc/internal/splitter"
	"mnoc/internal/stats"
	"mnoc/internal/topo"
	"mnoc/internal/variation"
	"mnoc/internal/workload"
)

// Extensions lists the experiments beyond the paper's evaluation: its
// Section 4.1/6/7 discussion points and future-work items, plus
// ablations of this implementation's own design choices.
func Extensions() []Entry {
	return []Entry{
		{"conventional", "Conventional topology mappings: clustered, tree, hypercube, mesh (Section 4.1)", Conventional},
		{"joint", "Joint mapping + topology optimisation (Sections 4.5/7)", Joint},
		{"dynamic", "Online thread migration and waveguide gating (Sections 4.4/6/7)", Dynamic},
		{"broadcastinv", "Broadcast-assisted coherence invalidation (Section 7)", BroadcastInv},
		{"mwsr", "SWMR vs MWSR crossbar structure (Section 6 related work)", MWSRCompare},
		{"protocol", "Ablation: MOSI vs MSI coherence (value of the Owned state)", ProtocolAblation},
		{"signal", "BER and threshold-circuit margins of a power topology (Section 3.2.2)", Signal},
		{"variation", "Process-variation yield and guard banding (related work [39])", Variation},
		{"designspace", "Design space: mode count x mIOP sweep (Section 7)", DesignSpace},
		{"trimsweep", "rNoC ring-trimming sensitivity, 20-100 uW/ring (Section 5.7)", TrimSweep},
		{"loadsweep", "Load-latency curves: mNoC vs rNoC vs MWSR under uniform traffic", LoadSweep},
		{"summary", "Headline claims computed live (abstract vs measured)", Summary},
		{"alphagrid", "Ablation: splitter α-search resolution (Appendix A)", AlphaGrid},
	}
}

// ExtensionByID finds an extension experiment.
func ExtensionByID(id string) (Entry, error) {
	for _, e := range Extensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("exp: unknown extension %q", id)
}

// Conventional compares the Section 4.1 conventional-topology mappings
// against the distance-based design the paper recommends instead,
// quantifying the waveguide/power-topology mismatch.
func Conventional(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	builders := []struct {
		name  string
		build func() (*topo.Topology, error)
	}{
		{"clustered4", func() (*topo.Topology, error) { return topo.Clustered(n, 4) }},
		{"tree4", func() (*topo.Topology, error) { return topo.Tree(n, 4, 4) }},
		{"hypercube", func() (*topo.Topology, error) { return topo.Hypercube(n) }},
		{"mesh", func() (*topo.Topology, error) {
			r, ccols := meshDims(n)
			return topo.Mesh2D(r, ccols, 4)
		}},
		{"distance4", func() (*topo.Topology, error) { return topo.DistanceBased(n, quarters(n)) }},
	}
	t := &Table{
		ID:     "conventional",
		Title:  "Conventional power-topology mappings (normalized mNoC power, naive mapping)",
		Header: []string{"design", "modes", "hmean normalized power"},
		Notes: []string{
			"paper (4.1): conventional mappings mismatch the waveguide's power profile",
			"(e.g. physically adjacent nodes landing in the high power mode), so the",
			"distance-based design should win",
		},
	}
	for _, b := range builders {
		tp, err := b.build()
		if err != nil {
			return nil, err
		}
		net, err := power.NewMNoC(c.Cfg, tp, power.UniformWeighting(tp.Modes))
		if err != nil {
			return nil, fmt.Errorf("exp: conventional: %s network: %w", b.name, err)
		}
		var vals []float64
		for _, bench := range c.Benchmarks() {
			naive, err := c.Shape(ctx, bench.Name)
			if err != nil {
				return nil, err
			}
			baseW, err := c.baseWatts(ctx, bench.Name, power.LossAverage)
			if err != nil {
				return nil, err
			}
			w, err := c.evaluateWatts(net, naive)
			if err != nil {
				return nil, err
			}
			vals = append(vals, w/baseW)
		}
		h, err := stats.HarmonicMean(vals)
		if err != nil {
			return nil, fmt.Errorf("exp: conventional: %s mean: %w", b.name, err)
		}
		t.Rows = append(t.Rows, []string{b.name, fmt.Sprintf("%d", tp.Modes), f3(h)})
	}
	return t, nil
}

func meshDims(n int) (int, int) {
	r := 1
	for r*r < n {
		r *= 2
	}
	for n%r != 0 {
		r /= 2
	}
	return r, n / r
}

// Joint evaluates the joint mapping+topology optimisation against the
// paper's sequential pipeline for both topology families.
func Joint(ctx context.Context, c *Context) (*Table, error) {
	t := &Table{
		ID:     "joint",
		Title:  "Joint optimisation vs sequential pipeline (normalized mNoC power)",
		Header: []string{"benchmark", "dist seq", "dist joint", "comm seq", "comm joint"},
		Notes: []string{
			"dist = fixed 2-mode distance topology (mapping re-solved against its mode powers);",
			"comm = adaptive comm-aware topology (sequential is already near a fixed point)",
		},
	}
	// A representative subset keeps the experiment affordable.
	for _, name := range []string{"barnes", "ocean_c", "water_s", "cholesky"} {
		naive, err := c.Shape(ctx, name)
		if err != nil {
			return nil, err
		}
		baseW, err := c.baseWatts(ctx, name, power.LossAverage)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, fam := range []joint.Family{joint.Distance, joint.CommAware} {
			res, err := joint.Optimize(c.Cfg, naive, joint.Options{
				Family: fam, Modes: 2, Rounds: 3,
				QAPIters: c.Opt.QAPIters / 2, Seed: c.Opt.Seed, Cycles: c.Opt.Cycles,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: joint family-%d optimisation on %s: %w", fam, name, err)
			}
			seq := res.PowerTrailW[0]
			best := seq
			for _, w := range res.PowerTrailW {
				if w < best {
					best = w
				}
			}
			row = append(row, f3(seq/baseW), f3(best/baseW))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Dynamic runs the online controller on a phased workload and reports
// adaptive vs static power per phase boundary.
func Dynamic(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	tr, err := workload.PhasedTrace(n, []workload.Phase{
		{Bench: "ocean_c", Cycles: 12_000_000, Flits: 300_000},
		{Bench: "fft", Cycles: 12_000_000, Flits: 300_000},
		{Bench: "barnes", Cycles: 12_000_000, Flits: 300_000},
	}, c.Opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: dynamic: phased trace: %w", err)
	}
	for i := range tr.Packets {
		tr.Packets[i].Flits *= 16 // cache-line bursts
	}
	tp, err := topo.DistanceBased(n, halves(n))
	if err != nil {
		return nil, fmt.Errorf("exp: dynamic: topology: %w", err)
	}
	net, err := power.NewMNoC(c.Cfg, tp, power.UniformWeighting(2))
	if err != nil {
		return nil, fmt.Errorf("exp: dynamic: network: %w", err)
	}
	res, err := dynamic.Run(net, tr, mapping.Identity(n), dynamic.DefaultPolicy())
	if err != nil {
		return nil, fmt.Errorf("exp: dynamic: controller run: %w", err)
	}
	t := &Table{
		ID:     "dynamic",
		Title:  "Online migration + waveguide gating on a phased workload",
		Header: []string{"epoch", "adaptive(W)", "static(W)", "migrations", "active waveguides"},
	}
	for _, e := range res.Epochs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", e.Epoch), f3(e.AdaptiveW), f3(e.StaticW),
			fmt.Sprintf("%d", e.Migrations), f2(e.ActiveWaveguideFrac),
		})
	}
	t.Rows = append(t.Rows, []string{"total", f3(res.TotalAdaptiveW), f3(res.TotalStaticW), "", ""})
	t.Notes = []string{
		"phases: ocean_c -> fft -> barnes; static keeps the initial mapping and full",
		"waveguide bundles; adaptive migrates threads (energy-gated) and gates idle guides",
	}
	return t, nil
}

// BroadcastInv measures the Section 7 coherence extension: network
// packets and runtime with unicast vs broadcast invalidations.
func BroadcastInv(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	t := &Table{
		ID:     "broadcastinv",
		Title:  "Broadcast-assisted invalidation (multicore simulation)",
		Header: []string{"benchmark", "packets uni", "packets bc", "runtime uni", "runtime bc", "bc invs"},
	}
	for _, name := range []string{"ocean_c", "fft", "water_ns"} {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("exp: broadcastinv: benchmark %s: %w", name, err)
		}
		cfg := sim.DefaultConfig(n)
		streams, err := sim.StreamsFromBenchmark(b, cfg, c.Opt.SimAccesses, c.Opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("exp: broadcastinv: streams for %s: %w", name, err)
		}
		run := func(broadcast bool) (*sim.Result, error) {
			cfg := sim.DefaultConfig(n)
			cfg.BroadcastInv = broadcast
			net, err := noc.NewMNoC(n)
			if err != nil {
				return nil, err
			}
			m, err := sim.NewMachine(cfg, net)
			if err != nil {
				return nil, err
			}
			m.SetTelemetry(c.reg, c.tracer)
			return m.Run(streams)
		}
		uni, err := run(false)
		if err != nil {
			return nil, err
		}
		bc, err := run(true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", len(uni.Trace.Packets)),
			fmt.Sprintf("%d", len(bc.Trace.Packets)),
			fmt.Sprintf("%d", uni.RuntimeCycles),
			fmt.Sprintf("%d", bc.RuntimeCycles),
			fmt.Sprintf("%d", bc.Directory.BroadcastInvs),
		})
	}
	t.Notes = []string{
		"SWMR sources broadcast physically; coalescing multi-sharer invalidations",
		"removes packets without protocol changes (paper Section 7 future work)",
	}
	return t, nil
}

// MWSRCompare contrasts the paper's SWMR crossbar (with and without
// power topologies) against a Corona-style MWSR crossbar built from the
// same mNoC devices. It reproduces the tradeoff behind the Section 6
// discussion: point-to-point (MWSR) optics need the least source power,
// but pay token-arbitration latency on every packet; power topologies
// recover much of the gap while keeping SWMR's latency.
func MWSRCompare(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	mwsr, err := power.NewMWSRNoC(c.Cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: network model: %w", err)
	}
	pt, err := c.DesignNetwork(ctx, DesignComm4)
	if err != nil {
		return nil, err
	}
	var vSWMR, vPT, vMWSR []float64
	for _, b := range c.Benchmarks() {
		mapped, err := c.Mapped(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		baseW, err := c.baseWatts(ctx, b.Name, power.LossAverage)
		if err != nil {
			return nil, err
		}
		ptB, err := pt.Evaluate(mapped, c.Opt.Cycles)
		if err != nil {
			return nil, fmt.Errorf("exp: mwsr: PT network on %s: %w", b.Name, err)
		}
		mwB, err := mwsr.Evaluate(mapped, c.Opt.Cycles)
		if err != nil {
			return nil, fmt.Errorf("exp: mwsr: MWSR network on %s: %w", b.Name, err)
		}
		vSWMR = append(vSWMR, 1.0)
		vPT = append(vPT, ptB.TotalWatts()/baseW)
		vMWSR = append(vMWSR, mwB.TotalWatts()/baseW)
	}
	hPT, err := stats.HarmonicMean(vPT)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: PT mean: %w", err)
	}
	hMW, err := stats.HarmonicMean(vMWSR)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: MWSR mean: %w", err)
	}

	// Latency comparison on one representative trace.
	b, err := workload.ByName("fft")
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: latency benchmark: %w", err)
	}
	tr, err := b.Trace(n, 100_000, 20_000, c.Opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: latency trace: %w", err)
	}
	sw, err := noc.NewMNoC(n)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: SWMR network: %w", err)
	}
	mw, err := noc.NewMWSR(n)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: MWSR network: %w", err)
	}
	swStats, err := noc.ReplayObserved(sw, tr, c.reg)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: SWMR replay: %w", err)
	}
	mwStats, err := noc.ReplayObserved(mw, tr, c.reg)
	if err != nil {
		return nil, fmt.Errorf("exp: mwsr: MWSR replay: %w", err)
	}

	return &Table{
		ID:     "mwsr",
		Title:  "SWMR vs MWSR crossbar structure (mNoC devices)",
		Header: []string{"design", "hmean normalized power", "avg packet latency (fft, cycles)"},
		Rows: [][]string{
			{"SWMR broadcast (1M)", "1.000", f2(swStats.AvgLatency)},
			{"SWMR + power topology (4M_T_G_S12)", f3(hPT), f2(swStats.AvgLatency)},
			{"MWSR point-to-point", f3(hMW), f2(mwStats.AvgLatency)},
		},
		Notes: []string{
			"MWSR lights only the path to one destination but arbitrates a token per",
			"packet; power topologies close much of the power gap at SWMR latency",
		},
	}, nil
}

// fourModeAssignment builds a representative 4-mode assignment for one
// source, shared by the signal and variation studies.
func fourModeAssignment(n, src int) []int {
	modeOf := make([]int, n)
	for j := range modeOf {
		switch {
		case j == src:
			modeOf[j] = -1
		case abs(j-src) <= n/8:
			modeOf[j] = 0
		case abs(j-src) <= n/3:
			modeOf[j] = 1
		case abs(j-src) <= n/2:
			modeOf[j] = 2
		default:
			modeOf[j] = 3
		}
	}
	return modeOf
}

// Signal audits a 4-mode splitter design's bit error rates and
// threshold-circuit margins (Section 3.2.2: sub-mIOP input "should be
// treated as noise" and rejected by a threshold circuit).
func Signal(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	src := n / 4
	modeOf := fourModeAssignment(n, src)
	d, err := splitter.Solve(c.Cfg.Splitter, src, modeOf, []float64{0.55, 0.25, 0.15, 0.05})
	if err != nil {
		return nil, fmt.Errorf("exp: signal: splitter design: %w", err)
	}
	link, err := signal.NewLink(c.Cfg.Splitter.PminUW)
	if err != nil {
		return nil, fmt.Errorf("exp: signal: link model: %w", err)
	}
	rep, err := signal.Audit(d, modeOf, link, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("exp: signal: audit: %w", err)
	}
	t := &Table{
		ID:     "signal",
		Title:  "Signal integrity of a 4-mode design (source at N/4)",
		Header: []string{"mode", "worst in-mode BER"},
	}
	for m, ber := range rep.WorstBERPerMode {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", m+1), fmt.Sprintf("%.2e", ber)})
	}
	t.Notes = []string{
		fmt.Sprintf("max sub-threshold Q at out-of-mode receivers: %.2f (design Q: %.0f)",
			rep.MaxSubthresholdQ, signal.QMin),
		fmt.Sprintf("threshold-circuit compliant: %v", rep.Compliant),
	}
	return t, nil
}

// Variation sweeps fabrication error on the same 4-mode design and
// reports yield loss plus the guard band that restores 99% yield.
func Variation(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	src := n / 4
	modeOf := fourModeAssignment(n, src)
	d, err := splitter.Solve(c.Cfg.Splitter, src, modeOf, []float64{0.55, 0.25, 0.15, 0.05})
	if err != nil {
		return nil, fmt.Errorf("exp: variation: splitter design: %w", err)
	}
	sigmas := []float64{0.01, 0.02, 0.05, 0.10}
	results, err := variation.Sweep(d, modeOf, c.Cfg.Splitter.PminUW, sigmas, 500, c.Opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("exp: variation: sweep: %w", err)
	}
	t := &Table{
		ID:     "variation",
		Title:  "Process-variation robustness of a 4-mode design",
		Header: []string{"splitter sigma", "fail fraction", "mean shortfall (dB)", "guard band for 99% yield (dB)"},
	}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*sigmas[i]),
			f3(r.FailFraction), f3(float64(r.MeanWorstShortfallDB)), f3(float64(r.GuardBandDB)),
		})
	}
	t.Notes = []string{
		"guard band = uniform extra QD LED drive compensating fabrication error",
		"(programmable per mode, Section 3.2.2)",
	}
	return t, nil
}

// ProtocolAblation quantifies what the Owned state of the paper's MOSI
// protocol is worth: under MSI every remote read of a dirty line forces
// a memory writeback, adding packets and DRAM writes.
func ProtocolAblation(ctx context.Context, c *Context) (*Table, error) {
	n := c.Opt.N
	t := &Table{
		ID:     "protocol",
		Title:  "MOSI vs MSI coherence (multicore simulation)",
		Header: []string{"benchmark", "mem writes MOSI", "mem writes MSI", "packets MOSI", "packets MSI", "runtime MOSI", "runtime MSI"},
	}
	for _, name := range []string{"ocean_c", "water_ns"} {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("exp: protocol: benchmark %s: %w", name, err)
		}
		baseCfg := sim.DefaultConfig(n)
		streams, err := sim.StreamsFromBenchmark(b, baseCfg, c.Opt.SimAccesses, c.Opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("exp: protocol: streams for %s: %w", name, err)
		}
		run := func(p coherence.Protocol) (*sim.Result, error) {
			cfg := sim.DefaultConfig(n)
			cfg.Protocol = p
			net, err := noc.NewMNoC(n)
			if err != nil {
				return nil, err
			}
			m, err := sim.NewMachine(cfg, net)
			if err != nil {
				return nil, err
			}
			m.SetTelemetry(c.reg, c.tracer)
			return m.Run(streams)
		}
		mosi, err := run(coherence.MOSI)
		if err != nil {
			return nil, err
		}
		msi, err := run(coherence.MSI)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", mosi.Directory.MemWrites),
			fmt.Sprintf("%d", msi.Directory.MemWrites),
			fmt.Sprintf("%d", len(mosi.Trace.Packets)),
			fmt.Sprintf("%d", len(msi.Trace.Packets)),
			fmt.Sprintf("%d", mosi.RuntimeCycles),
			fmt.Sprintf("%d", msi.RuntimeCycles),
		})
	}
	t.Notes = []string{
		"the Owned state lets dirty data be shared without touching memory;",
		"the paper's Graphite setup uses MOSI for exactly this reason",
	}
	return t, nil
}

// AlphaGrid ablates the Appendix A α-search resolution: the paper
// iterates in 0.1 steps and notes "better results may be achieved by
// using steps smaller than 0.1"; our optimiser refines to 0.001. This
// experiment quantifies what each refinement level is worth.
func AlphaGrid(ctx context.Context, c *Context) (*Table, error) {
	p := c.Cfg.Splitter
	n := c.Opt.N
	src := n / 4
	modeOf := fourModeAssignment(n, src)
	weights := []float64{0.55, 0.25, 0.15, 0.05}
	costs, err := splitter.ModeCosts(p, src, modeOf, 4)
	if err != nil {
		return nil, fmt.Errorf("exp: alphagrid: mode costs: %w", err)
	}
	t := &Table{
		ID:     "alphagrid",
		Title:  "Splitter α-search resolution ablation (4-mode source)",
		Header: []string{"grid", "weighted source power (relative)"},
	}
	grids := []string{"0.1 (paper)", "0.1 + 0.01", "0.1 + 0.01 + 0.001 (default)"}
	base := phys.MicroWatts(0)
	for i, name := range grids {
		// The search over the first i+1 grid levels, nesting-clamped
		// without OptimalAlphas' 0.01 floor.
		alphas := splitter.DescendAlphas(costs, weights, i+1)
		for k := 1; k < len(alphas); k++ {
			alphas[k] = min(alphas[k], alphas[k-1])
		}
		v := splitter.WeightedPowerForAlphas(costs, alphas, weights)
		if base == 0 {
			base = v
		}
		t.Rows = append(t.Rows, []string{name, f3(float64(v / base))})
	}
	t.Notes = []string{"relative to the paper's 0.1 grid; lower is better"}
	return t, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
