package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// InsensitivityPoint reports network blocking under one holding-time
// distribution for the three disciplines. Classical loss networks are
// insensitive to the holding distribution (blocking depends only on its
// mean); trunk reservation is known to break exact insensitivity, so the
// interesting measurement is *how much* the controlled scheme's blocking
// moves as the holding CV² sweeps 0 → 4.
type InsensitivityPoint struct {
	Dist                             sim.HoldingDist
	Single, Uncontrolled, Controlled stats.Summary
}

// Insensitivity runs the study on NSFNet at nominal load.
func Insensitivity(h int, p SimParams) ([]InsensitivityPoint, error) {
	if h <= 0 {
		h = 11
	}
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(g, nominal, core.Options{H: h})
	if err != nil {
		return nil, err
	}
	pols := []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()}
	dists := []sim.HoldingDist{
		sim.HoldingDeterministic, sim.HoldingErlang2, sim.HoldingExponential, sim.HoldingHyperexp,
	}
	var out []InsensitivityPoint
	for _, dist := range dists {
		trace := func(seed int) (*sim.Trace, error) {
			return sim.GenerateTraceHolding(nominal, p.Horizon, int64(seed), dist)
		}
		sums, err := compare(g, p.quiet(), trace, each(pols...))
		if err != nil {
			return nil, err
		}
		out = append(out, InsensitivityPoint{Dist: dist, Single: sums[0], Uncontrolled: sums[1], Controlled: sums[2]})
	}
	return out, nil
}

// RenderInsensitivity prints the study.
func RenderInsensitivity(points []InsensitivityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Holding-time insensitivity (NSFNet nominal; unit-mean distributions)\n")
	fmt.Fprintf(&b, "%-26s %6s %12s %14s %12s\n", "holding distribution", "CV²", "single-path", "uncontrolled", "controlled")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-26s %6.2g %12.5f %14.5f %12.5f\n",
			pt.Dist, pt.Dist.CV2(), pt.Single.Mean, pt.Uncontrolled.Mean, pt.Controlled.Mean)
	}
	return b.String()
}
