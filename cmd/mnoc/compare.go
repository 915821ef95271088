package main

import (
	"context"
	"fmt"
	"io"

	"mnoc/internal/exp"
	"mnoc/internal/power"
	"mnoc/internal/runner"
)

// compareCmd prices every design kind on one workload and prints a
// per-topology comparison table. With -loss=worst each design is priced
// twice — under the paper's per-destination path-loss accounting and
// under the worst-case (longest-path) accounting of the optical-
// crossbar literature — yielding a worst-vs-average Pareto row per
// topology. Solves flow through the same artifact cache as `mnoc
// bench`, so a warm cache makes this instant.
func compareCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("compare", stderr)
	bench := fs.String("bench", "water_s", "workload to price")
	loss := fs.String("loss", "average", "loss model: average, or worst for the worst-vs-average table")
	fs.String("scale", "paper", "paper (radix-256) or quick (radix-64)")
	fs.Int64("seed", 1, "random seed for workloads and heuristics")
	qap := fs.Bool("qap", false, "apply QAP thread mapping before evaluation")
	fs.Int("workers", 0, "worker goroutines for the design solves")
	fs.String("cache-dir", "", "persistent artifact cache directory (shared with mnoc bench)")
	configPath := fs.String("config", "", "JSON runner config file; explicitly-set flags override it")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	model, err := power.ParseLossModel(*loss)
	if err != nil {
		return err
	}
	cfg, err := runnerConfig(fs, *configPath)
	if err != nil {
		return err
	}
	r, err := runner.New(cfg)
	if err != nil {
		return err
	}
	c := r.Context()
	fmt.Fprintf(stdout, "mnoc compare: bench=%s scale=%s radix=%d seed=%d qap=%v loss=%s\n\n",
		*bench, scaleName(cfg), r.Options().N, r.Options().Seed, *qap, model)

	if model == power.LossWorst {
		fmt.Fprintf(stdout, "%-10s %12s %12s %10s %10s %10s\n",
			"design", "avg_w", "worst_w", "wc/avg", "avg_norm", "worst_norm")
	} else {
		fmt.Fprintf(stdout, "%-10s %12s %10s\n", "design", "total_w", "norm")
	}
	for _, kind := range exp.DesignKinds() {
		avg, avgBaseW, err := c.EvaluateDesign(ctx, kind, *bench, *qap)
		if err != nil {
			return err
		}
		aw := avg.TotalWatts()
		if model != power.LossWorst {
			fmt.Fprintf(stdout, "%-10s %12.4f %10.3f\n", kind, aw, aw/avgBaseW)
			continue
		}
		wc, wcBaseW, err := c.EvaluateDesignLoss(ctx, kind, *bench, *qap, power.LossWorst)
		if err != nil {
			return err
		}
		ww := wc.TotalWatts()
		fmt.Fprintf(stdout, "%-10s %12.4f %12.4f %10.3f %10.3f %10.3f\n",
			kind, aw, ww, ww/aw, aw/avgBaseW, ww/wcBaseW)
	}
	fmt.Fprintln(stderr, "mnoc compare:", r.Summary())
	return nil
}
