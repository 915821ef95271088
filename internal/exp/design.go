package exp

import (
	"context"
	"fmt"
	"sort"

	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/topo"
	"mnoc/internal/trace"
	"mnoc/internal/workload"
)

// Design kinds accepted by BuildDesign and DesignNetwork: the paper's
// six evaluated power-topology families. Each maps onto the exact
// artifact-cache key the figure experiments use, so a server solve and
// a bench run share cached networks.
const (
	DesignBase     = "base"     // single-mode full-broadcast mNoC
	DesignDist2    = "dist2"    // 2-mode distance-based (Fig. 8 "2M_N_U")
	DesignDist4    = "dist4"    // 4-mode distance-based (Fig. 8 "4M_N_U")
	DesignCluster2 = "cluster2" // 2-mode clustered (Fig. 8 "2M_C_U")
	DesignComm2    = "comm2"    // 2-mode communication-aware, S12 sample (Fig. 9 "2M_G_S12")
	DesignComm4    = "comm4"    // 4-mode communication-aware, S12 sample — the paper's best (Fig. 9/10 "4M_G_S12")
)

// DesignKinds lists the accepted design kinds, sorted.
func DesignKinds() []string {
	kinds := []string{DesignBase, DesignDist2, DesignDist4, DesignCluster2, DesignComm2, DesignComm4}
	sort.Strings(kinds)
	return kinds
}

// designKeys maps each solved design kind to its network's cache key.
var designKeys = map[string]string{
	DesignDist2: "2M_N_U", DesignDist4: "4M_N_U", DesignCluster2: "2M_C_U",
	DesignComm2: "2M_G_S12", DesignComm4: "4M_G_S12",
}

// BuildDesign designs the named kind's splitters on cfg's crossbar.
// The communication-aware kinds are fitted to traffic, a core-indexed
// matrix that picks their mode partitions and weights their splitters;
// the other kinds ignore it and weight their modes uniformly. The
// topologies are labelled 1M, 2M_N, 4M_N, 2M_cluster4, 2M_G and 4M_G.
func BuildDesign(cfg power.Config, kind string, traffic *trace.Matrix) (*power.MNoC, error) {
	return buildDesign(cfg, kind, traffic, "")
}

// buildDesign is BuildDesign with the name of the traffic sample
// appended to the communication-aware labels (DesignNetwork's
// 2M_G_S12).
func buildDesign(cfg power.Config, kind string, traffic *trace.Matrix, sample string) (*power.MNoC, error) {
	var t *topo.Topology
	var err error
	switch kind {
	case DesignBase:
		return power.NewBaseMNoC(cfg)
	case DesignDist2:
		t, err = topo.DistanceModes(cfg.N, 2)
	case DesignDist4:
		t, err = topo.DistanceModes(cfg.N, 4)
	case DesignCluster2:
		t, err = topo.Clustered(cfg.N, 4)
	case DesignComm2, DesignComm4:
		if traffic == nil {
			return nil, fmt.Errorf("exp: design %s needs traffic to fit", kind)
		}
		modes := 2
		if kind == DesignComm4 {
			modes = 4
		}
		if t, err = topo.CommAwareModes(traffic, cfg.Splitter, modes, fmt.Sprintf("%dM_G%s", modes, sample)); err != nil {
			return nil, err
		}
		return power.NewMNoC(cfg, t, power.SampledWeighting(traffic))
	default:
		return nil, fmt.Errorf("exp: unknown design kind %q (want one of %v)", kind, DesignKinds())
	}
	if err != nil {
		return nil, err
	}
	return power.NewMNoC(cfg, t, power.UniformWeighting(t.Modes))
}

// DesignNetwork builds (or loads from the artifact cache) the named
// power-topology design at the context's scale, fitting the
// communication-aware kinds to the S12 sample. The kind names reuse
// the figure experiments' cache keys, so a network solved here is a
// warm hit for `mnoc bench` and vice versa.
func (c *Context) DesignNetwork(ctx context.Context, kind string) (*power.MNoC, error) {
	if kind == DesignBase {
		return c.base, nil
	}
	key, ok := designKeys[kind]
	if !ok {
		return nil, fmt.Errorf("exp: unknown design kind %q (want one of %v)", kind, DesignKinds())
	}
	// A warm network returns here, before the build closure allocates.
	if net, ok := memoized[*power.MNoC](ctx, c, memoKey{kind: artifact.KindNetwork, name: key}); ok {
		return net, nil
	}
	return c.network(ctx, key, func(ctx context.Context) (*power.MNoC, error) {
		if kind != DesignComm2 && kind != DesignComm4 {
			return BuildDesign(c.Cfg, kind, nil)
		}
		s12, err := c.SampledMatrix(ctx, workload.Names())
		if err != nil {
			return nil, err
		}
		return buildDesign(c.Cfg, kind, s12, "_S12")
	})
}

// EvaluateDesign solves the named design and evaluates it on one
// benchmark's traffic (QAP-mapped when mapped is set), returning the
// power breakdown plus the base network's total watts on the same
// naive traffic for normalisation. This is the server's /v1/solve
// workhorse; everything flows through the artifact cache.
func (c *Context) EvaluateDesign(ctx context.Context, kind, bench string, mapped bool) (power.Breakdown, float64, error) {
	return c.EvaluateDesignLoss(ctx, kind, bench, mapped, power.LossAverage)
}

// EvaluateDesignLoss is EvaluateDesign under an explicit insertion-loss
// accounting model. Both the named design and the base network used for
// normalisation are priced under the same model, so the returned
// normalisation compares like with like (worst-case design against
// worst-case broadcast). LossAverage reproduces EvaluateDesign exactly.
// The artifact cache is untouched by the model: each network prices
// each model from its own pricing plan (power.MNoC.EvaluateLoss).
// Designs and traffic are immutable for the life of the context, so the
// price is memoised in process per (kind, bench, mapped, model): a warm
// call is a memo lookup. Only validated inputs price successfully, so
// the memo holds at most one entry per design kind, benchmark, mapping
// and loss model; an unknown model errors before any lookup.
func (c *Context) EvaluateDesignLoss(ctx context.Context, kind, bench string, mapped bool, model power.LossModel) (power.Breakdown, float64, error) {
	li, err := lossIndex(model)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	mi := 0
	if mapped {
		mi = 1
	}
	key := memoKey{kind: priceKinds[li][mi], name: bench, design: kind}
	if p, ok := memoized[designPrice](ctx, c, key); ok {
		return p.b, p.baseW, nil
	}
	v, err := c.memoValue(ctx, key, func(ctx context.Context) (any, error) {
		return c.priceDesign(ctx, kind, bench, mapped, model)
	})
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	p := v.(designPrice)
	return p.b, p.baseW, nil
}

// designPrice is one memoised EvaluateDesignLoss result: the design's
// breakdown and the base network's normalising watts.
type designPrice struct {
	b     power.Breakdown
	baseW float64
}

// priceDesign is EvaluateDesignLoss's miss path: it evaluates the
// design on the (optionally mapped) traffic and fetches the base
// network's watts under the same model.
func (c *Context) priceDesign(ctx context.Context, kind, bench string, mapped bool, model power.LossModel) (designPrice, error) {
	net, err := c.DesignNetwork(ctx, kind)
	if err != nil {
		return designPrice{}, err
	}
	m, err := c.Shape(ctx, bench)
	if err == nil && mapped {
		m, err = c.Mapped(ctx, bench)
	}
	if err != nil {
		return designPrice{}, err
	}
	b, err := net.EvaluateLoss(m, c.Opt.Cycles, model)
	if err != nil {
		return designPrice{}, fmt.Errorf("exp: evaluating design %s on %s: %w", kind, bench, err)
	}
	baseW, err := c.baseWatts(ctx, bench, model)
	if err != nil {
		return designPrice{}, err
	}
	return designPrice{b, baseW}, nil
}

// baseWatts is the base network's total watts on bench's naive traffic
// under model, memoised in process: Table 4's power column and the
// normaliser of every normalised-power table and of EvaluateDesignLoss.
func (c *Context) baseWatts(ctx context.Context, bench string, model power.LossModel) (float64, error) {
	li, err := lossIndex(model)
	if err != nil {
		return 0, err
	}
	key := memoKey{kind: baseKinds[li], name: bench}
	if w, ok := memoized[float64](ctx, c, key); ok {
		return w, nil
	}
	v, err := c.memoValue(ctx, key, func(ctx context.Context) (any, error) {
		naive, err := c.Shape(ctx, bench)
		if err != nil {
			return nil, err
		}
		b, err := c.base.EvaluateLoss(naive, c.Opt.Cycles, model)
		if err != nil {
			return nil, fmt.Errorf("exp: evaluating base network on %s: %w", bench, err)
		}
		return b.TotalWatts(), nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}
