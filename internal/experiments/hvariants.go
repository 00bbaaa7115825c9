package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/stats"
)

// HVariantsPoint compares protection-derivation strategies at one load:
// the paper's global-H rule at H=11 and H=6, the footnote-5 per-link H^k
// (on K-limited alternate suites, where it is non-degenerate), and the
// §3.2 length-prioritized (tiered) variant.
type HVariantsPoint struct {
	Load float64
	// Blocking by strategy name.
	Blocking map[string]stats.Summary
}

// HVariantNames lists the compared strategies in render order.
var HVariantNames = []string{
	"single-path", "global H=11", "global H=6", "per-link Hk (K=4)", "tiered s=3",
}

// HVariants runs the comparison on NSFNet.
func HVariants(loads []float64, p SimParams) ([]HVariantsPoint, error) {
	if loads == nil {
		loads = []float64{8, 10, 12}
	}
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	var out []HVariantsPoint
	for _, load := range loads {
		m := nominal.Scaled(load / 10)
		s11, err := core.New(g, m, core.Options{H: 11})
		if err != nil {
			return nil, err
		}
		s6, err := core.New(g, m, core.Options{H: 6})
		if err != nil {
			return nil, err
		}
		// Per-link H^k over K-limited suites (K=4): both the levels and the
		// attempt suites change.
		tblK, err := policy.BuildMinHopK(g, 0, 4)
		if err != nil {
			return nil, err
		}
		perLink, err := policy.NewControlledPerLinkH(tblK, s11.LinkLoads)
		if err != nil {
			return nil, err
		}
		tiered, err := policy.NewControlledTiered(s11.Table, s11.LinkLoads, 3)
		if err != nil {
			return nil, err
		}
		// Runs in HVariantNames order: sums[i] is HVariantNames[i]'s.
		sums, err := compare(g, p.quiet(), poisson(m, p.Horizon), each(
			s11.SinglePath(), s11.Controlled(), s6.Controlled(), perLink, tiered))
		if err != nil {
			return nil, err
		}
		pt := HVariantsPoint{Load: load, Blocking: make(map[string]stats.Summary)}
		for i, name := range HVariantNames {
			pt.Blocking[name] = sums[i]
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderHVariants prints the comparison.
func RenderHVariants(points []HVariantsPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Protection-derivation variants (NSFNet): global H, per-link H^k, tiered\n")
	fmt.Fprintf(&b, "%-8s", "load")
	for _, name := range HVariantNames {
		fmt.Fprintf(&b, " %18s", name)
	}
	fmt.Fprintln(&b)
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g", pt.Load)
		for _, name := range HVariantNames {
			fmt.Fprintf(&b, " %18.5f", pt.Blocking[name].Mean)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
