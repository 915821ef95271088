package exp

import (
	"context"
	"fmt"
)

// Summary computes the paper's headline claims live and places them
// beside the published numbers — the machine-checked version of the
// abstract: "power topologies and intelligent thread mapping can reduce
// total mNoC power by up to 51% ... performance is 10% better than
// conventional resonator-based photonic NoCs and energy is reduced by
// 72%".
func Summary(ctx context.Context, c *Context) (*Table, error) {
	// Power reductions from the Fig. 8/9 machinery.
	fig8, err := Fig8(ctx, c)
	if err != nil {
		return nil, err
	}
	fig9, err := Fig9(ctx, c)
	if err != nil {
		return nil, err
	}
	hmeanOf := func(tbl *Table, col string) (float64, error) {
		idx := -1
		for i, h := range tbl.Header {
			if h == col {
				idx = i
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("exp: column %q missing", col)
		}
		for _, row := range tbl.Rows {
			if row[0] == "hmean" {
				var v float64
				if _, err := fmt.Sscanf(row[idx], "%f", &v); err != nil {
					return 0, err
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("exp: hmean row missing")
	}
	naive4, err := hmeanOf(fig8, "4M_N_U")
	if err != nil {
		return nil, err
	}
	best, err := hmeanOf(fig9, "4M_T_G_S12")
	if err != nil {
		return nil, err
	}

	// Energy and performance from the Fig. 10 machinery.
	fig10, err := Fig10(ctx, c)
	if err != nil {
		return nil, err
	}
	var ptEnergy float64
	for _, row := range fig10.Rows {
		if row[0] == "PT_mNoC" {
			if _, err := fmt.Sscanf(row[len(row)-1], "%f", &ptEnergy); err != nil {
				return nil, err
			}
		}
	}
	perfs, err := c.performanceAll(ctx)
	if err != nil {
		return nil, err
	}
	var ratioSum float64
	for _, r := range perfs {
		ratioSum += float64(r.rnocCycles) / float64(r.mnocCycles)
	}
	perf := ratioSum / float64(len(perfs))

	t := &Table{
		ID:     "summary",
		Title:  "Headline claims, computed live",
		Header: []string{"claim", "paper", "measured"},
		Rows: [][]string{
			{"mNoC power reduction, naive topologies", "~13%", fmt.Sprintf("%.0f%%", 100*(1-naive4))},
			{"mNoC power reduction, topologies + mapping", "up to 51%", fmt.Sprintf("%.0f%%", 100*(1-best))},
			{"performance vs rNoC", "+10%", fmt.Sprintf("%+.0f%%", 100*(perf-1))},
			{"energy vs rNoC (best design)", "-72%", fmt.Sprintf("%.0f%%", -100*(1-ptEnergy))},
		},
		Notes: []string{
			"reductions are harmonic means over the 12 SPLASH stand-ins",
		},
	}
	return t, nil
}
