package main

import (
	"context"
	"fmt"
	"io"

	"mnoc/internal/core"
	"mnoc/internal/phys"
	"mnoc/internal/power"
	"mnoc/internal/runner"
	"mnoc/internal/trace"
)

// powerCmd evaluates the power of a packet trace (from `mnoc trace` or
// `mnoc sim`) under a chosen power topology and thread mapping, and
// compares against the rNoC and clustered baselines.
func powerCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("power", stderr)
	var (
		in       = fs.String("i", "", "input trace file (this or -matrix is required)")
		matrix   = fs.String("matrix", "", "input CSV traffic matrix (flits; alternative to -i)")
		cyc      = fs.Float64("cycles", 1e6, "evaluation window in cycles when using -matrix")
		kind     = fs.String("kind", "comm4", "design kind: "+designKinds)
		qap      = fs.Bool("qap", true, "apply QAP thread mapping")
		seed     = fs.Int64("seed", 1, "random seed for the QAP search")
		cacheDir = fs.String("cache-dir", "", "persistent artifact cache directory (reuses QAP solves across runs)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var profile *trace.Matrix
	var cycles float64
	var source string
	switch {
	case *in != "" && *matrix != "":
		return fmt.Errorf("-i and -matrix are mutually exclusive")
	case *in != "":
		tr, err := readFile(*in, trace.Read)
		if err != nil {
			return err
		}
		profile = tr.Matrix()
		cycles = float64(tr.Cycles)
		source = fmt.Sprintf("%s (n=%d, %d packets, %d cycles)", *in, tr.N, len(tr.Packets), tr.Cycles)
	case *matrix != "":
		m, err := readFile(*matrix, trace.ReadCSV)
		if err != nil {
			return err
		}
		profile = m
		cycles = *cyc
		source = fmt.Sprintf("%s (n=%d CSV matrix, %.0f cycles)", *matrix, m.N, cycles)
	default:
		return fmt.Errorf("-i or -matrix is required")
	}

	store, err := runner.NewStore(*cacheDir)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(profile.N)
	if err != nil {
		return err
	}
	design, base, err := designByKind(sys, store, profile, *kind, *qap, *seed)
	if err != nil {
		return err
	}
	bd, err := design.Power(profile, cycles)
	if err != nil {
		return err
	}
	baseBd, err := base.Network.Evaluate(profile, cycles)
	if err != nil {
		return err
	}

	// The clustered baselines need at least two 4-node clusters.
	var rb, cb power.Breakdown
	haveClustered := profile.N >= 8 && profile.N%4 == 0
	if haveClustered {
		rnoc, err := power.NewRNoC(profile.N, 4)
		if err != nil {
			return err
		}
		if rb, err = rnoc.Evaluate(profile, cycles); err != nil {
			return err
		}
		cm, err := power.NewCMNoC(profile.N, 4)
		if err != nil {
			return err
		}
		if cb, err = cm.Evaluate(profile, cycles); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "input:     %s\n", source)
	fmt.Fprintf(stdout, "design:    %s  qap=%v\n", design.Topology.Name, *qap)
	row := func(name string, b power.Breakdown) {
		fmt.Fprintf(stdout, "%-10s total=%-10s source=%-10s oe=%-10s elec=%-10s ring=%-10s laser=%s\n",
			name, phys.FormatPower(b.TotalUW()), phys.FormatPower(b.SourceUW),
			phys.FormatPower(b.OEUW), phys.FormatPower(b.ElectricalUW),
			phys.FormatPower(b.RingTrimUW), phys.FormatPower(b.LaserUW))
	}
	row("design", bd)
	row("base mNoC", baseBd)
	if haveClustered {
		row("rNoC", rb)
		row("c_mNoC", cb)
	}
	fmt.Fprintf(stdout, "reduction vs base mNoC: %.1f%%\n", 100*(1-bd.TotalUW()/baseBd.TotalUW()))
	return nil
}
