package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/optimize"
	"repro/internal/policy"
	"repro/internal/stats"
)

// MinLossPoint compares min-hop and min-loss SI primary selection at one
// load, with and without controlled alternate routing (§4, "Primary paths
// chosen to minimize link loss").
type MinLossPoint struct {
	Load float64
	// Blocking by configuration.
	MinHopSingle, MinLossSingle         stats.Summary
	MinHopControlled, MinLossControlled stats.Summary
	// BifurcatedPairs counts O-D pairs whose min-loss primary splits.
	BifurcatedPairs int
}

// MinLossStudy runs the comparison over a load grid on NSFNet. The paper's
// findings to reproduce: min-loss primaries beat min-hop primaries under
// single-path routing, and the two become nearly coincident once controlled
// alternate routing is added.
func MinLossStudy(loads []float64, h int, p SimParams) ([]MinLossPoint, error) {
	if loads == nil {
		loads = []float64{8, 10, 12}
	}
	if h <= 0 {
		h = 11
	}
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	var out []MinLossPoint
	for _, load := range loads {
		m := nominal.Scaled(load / 10)

		hopScheme, err := core.New(g, m, core.Options{H: h})
		if err != nil {
			return nil, err
		}
		opt, err := optimize.MinLossPrimaries(g, m, optimize.Options{})
		if err != nil {
			return nil, err
		}
		tbl, err := policy.BuildBifurcated(g, opt.Primaries, h, 1)
		if err != nil {
			return nil, err
		}
		lossScheme, err := core.NewWithTable(g, m, tbl, core.Options{H: h})
		if err != nil {
			return nil, err
		}

		point := MinLossPoint{Load: load}
		for _, wps := range opt.Primaries {
			if len(wps) > 1 {
				point.BifurcatedPairs++
			}
		}
		sums, err := compare(g, p.quiet(), poisson(m, p.Horizon), each(
			hopScheme.SinglePath(), lossScheme.SinglePath(), hopScheme.Controlled(), lossScheme.Controlled()))
		if err != nil {
			return nil, err
		}
		point.MinHopSingle, point.MinLossSingle = sums[0], sums[1]
		point.MinHopControlled, point.MinLossControlled = sums[2], sums[3]
		out = append(out, point)
	}
	return out, nil
}

// RenderMinLoss prints the study as a table.
func RenderMinLoss(points []MinLossPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Min-loss vs min-hop primary selection, NSFNet\n")
	fmt.Fprintf(&b, "%-6s %6s %14s %14s %16s %16s\n",
		"load", "bifur", "minhop/single", "minloss/single", "minhop/ctrl", "minloss/ctrl")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-6.3g %6d %14.4f %14.4f %16.4f %16.4f\n",
			pt.Load, pt.BifurcatedPairs,
			pt.MinHopSingle.Mean, pt.MinLossSingle.Mean,
			pt.MinHopControlled.Mean, pt.MinLossControlled.Mean)
	}
	return b.String()
}
