package exp

import (
	"context"
	"fmt"
	"sort"

	"mnoc/internal/power"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/topo"
	"mnoc/internal/workload"
)

// Design kinds accepted by DesignNetwork. Each names one of the
// paper's evaluated power-topology families and maps onto the exact
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

// DesignNetwork builds (or loads from the artifact cache) the named
// power-topology design at the context's scale. The kind names reuse
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
	// A warm network returns here, before the builders below allocate.
	if net, ok := memoized[*power.MNoC](ctx, c, memoKey{artifact.KindNetwork, key}); ok {
		return net, nil
	}
	n := c.Opt.N
	switch kind {
	case DesignDist2:
		return distanceNet(ctx, c, key, halves(n), power.UniformWeighting(2))
	case DesignDist4:
		return distanceNet(ctx, c, key, quarters(n), power.UniformWeighting(4))
	case DesignCluster2:
		return c.network(ctx, key, func(context.Context) (*power.MNoC, error) {
			t, err := topo.Clustered(n, 4)
			if err != nil {
				return nil, err
			}
			return power.NewMNoC(c.Cfg, t, power.UniformWeighting(2))
		})
	case DesignComm2:
		return commAwareNet(ctx, c, key, 2, workload.Names())
	}
	return commAwareNet(ctx, c, key, 4, workload.Names())
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
// LossWorst from its own worst-case table (power.MNoC.EvaluateLoss),
// built once per network on first use, and the base network's watts
// are memoised per (bench, model), so a warm call costs one
// EvaluateLoss of the design.
func (c *Context) EvaluateDesignLoss(ctx context.Context, kind, bench string, mapped bool, model power.LossModel) (power.Breakdown, float64, error) {
	net, err := c.DesignNetwork(ctx, kind)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	m, err := c.Shape(ctx, bench)
	if err == nil && mapped {
		m, err = c.Mapped(ctx, bench)
	}
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	b, err := net.EvaluateLoss(m, c.Opt.Cycles, model)
	if err != nil {
		return power.Breakdown{}, 0, fmt.Errorf("exp: evaluating design %s on %s: %w", kind, bench, err)
	}
	baseW, err := c.baseWatts(ctx, bench, model)
	if err != nil {
		return power.Breakdown{}, 0, err
	}
	return b, baseW, nil
}

// baseWatts is the base network's total watts on bench's naive traffic
// under model, memoised in process: Table 4's power column and the
// normaliser of every normalised-power table and of EvaluateDesignLoss.
func (c *Context) baseWatts(ctx context.Context, bench string, model power.LossModel) (float64, error) {
	key := memoKey{kindBaseAverage, bench}
	switch model {
	case "", power.LossAverage:
	case power.LossWorst:
		key.kind = kindBaseWorst
	default:
		return 0, fmt.Errorf("exp: unknown loss model %q", model)
	}
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
