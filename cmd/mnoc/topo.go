package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"mnoc/internal/core"
	"mnoc/internal/exp"
	"mnoc/internal/mapping"
	"mnoc/internal/phys"
	"mnoc/internal/runner"
	"mnoc/internal/runner/artifact"
	"mnoc/internal/trace"
)

// topoCmd designs a power topology for a workload and prints its
// adjacency-matrix view (the style of the paper's Figure 5) plus the
// per-source mode power summary.
func topoCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("topo", stderr)
	var (
		n        = fs.Int("n", 64, "crossbar radix")
		bench    = fs.String("bench", "water_s", "workload to profile (one of: "+fmt.Sprint(core.Benchmarks())+")")
		kind     = fs.String("kind", "comm2", kindUsage)
		qap      = fs.Bool("qap", false, "apply QAP thread mapping before profiling-driven design")
		render   = fs.Int("render", 16, "how many nodes of the adjacency matrix to print (0 = none)")
		seed     = fs.Int64("seed", 1, "random seed")
		export   = fs.String("export", "", "write the drive/fabrication table (splitter ratios, mode powers, thread maps) to this file")
		cacheDir = fs.String("cache-dir", "", "persistent artifact cache directory (reuses QAP solves across runs)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	store, err := runner.NewStore(*cacheDir)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(*n)
	if err != nil {
		return err
	}
	profile, err := sys.Profile(*bench, *seed)
	if err != nil {
		return err
	}
	design, _, err := designByKind(sys, store, profile, *kind, *qap, *seed)
	if err != nil {
		return err
	}

	bd, err := design.Power(profile, core.ProfileCycles)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "design %s on %s (n=%d, qap=%v)\n", design.Topology.Name, *bench, *n, *qap)
	fmt.Fprintf(stdout, "modes: %d  total power: %s (source %s, O/E %s, electrical %s)\n",
		design.Topology.Modes,
		phys.FormatPower(bd.TotalUW()), phys.FormatPower(bd.SourceUW),
		phys.FormatPower(bd.OEUW), phys.FormatPower(bd.ElectricalUW))

	src := *n / 2
	d := design.Network.Designs[src]
	fmt.Fprintf(stdout, "source %d mode powers (QD LED optical): ", src)
	for m, p := range d.ModePowerUW {
		fmt.Fprintf(stdout, "mode%d=%s ", m+1, phys.FormatPower(p))
	}
	fmt.Fprintln(stdout)

	if *render > 0 {
		hi := min(*render, *n)
		fmt.Fprintf(stdout, "\nadjacency matrix (nodes 0..%d):\n", hi-1)
		if err := design.Topology.Render(stdout, 0, hi); err != nil {
			return err
		}
	}

	if *export != "" {
		tbl, err := design.DriveTable()
		if err != nil {
			return err
		}
		if err := writeFile(*export, tbl.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "drive table written: %s (%d nodes, %d modes)\n", *export, tbl.N, tbl.Modes)
	}
	return nil
}

// kindAliases are the CLI's earlier names for two design kinds, still
// accepted so existing command lines keep working.
var kindAliases = map[string]string{"broadcast": exp.DesignBase, "cluster": exp.DesignCluster2}

// kindUsage is the -kind flag's help text.
var kindUsage = "design kind: " + strings.Join(exp.DesignKinds(), ", ") + " (aliases: broadcast = base, cluster = cluster2)"

// designByKind builds the named power topology for a thread-indexed
// traffic profile and returns it with its thread mapping attached,
// together with the broadcast base design (identity mapping). With qap
// the threads are first placed by QAP (cached in store), so the
// communication-aware kinds are designed on the core-indexed traffic,
// the way the paper's T variants are.
func designByKind(sys *core.System, store artifact.Store, profile *trace.Matrix,
	kind string, qap bool, seed int64) (design, base *core.Design, err error) {
	if alias, ok := kindAliases[kind]; ok {
		kind = alias
	}
	if !slices.Contains(exp.DesignKinds(), kind) {
		return nil, nil, fmt.Errorf("unknown kind %q (want one of %s)", kind, strings.Join(exp.DesignKinds(), ", "))
	}
	if base, err = sys.Design(exp.DesignBase, nil); err != nil {
		return nil, nil, err
	}
	asg := base.Mapping
	if qap {
		asg, err = runner.CachedQAP(store, profile, seed, 0, func() (mapping.Assignment, error) {
			d, err := base.WithQAPMapping(profile, core.QAPOptions{Seed: seed})
			if err != nil {
				return nil, err
			}
			return d.Mapping, nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	mapped, err := profile.Permute(asg)
	if err != nil {
		return nil, nil, err
	}
	if design, err = sys.Design(kind, mapped); err != nil {
		return nil, nil, err
	}
	if design, err = design.WithMapping(asg); err != nil {
		return nil, nil, err
	}
	return design, base, nil
}
