package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/stats"
)

// FocusedPoint is one overload factor of the focused-overload study: one
// O-D pair's demand is multiplied by Factor while the rest of the network
// stays at nominal — the classic telephony stress case (media event on one
// city pair) behind the paper's §1 motivation from AT&T's experience.
type FocusedPoint struct {
	Factor float64
	// Blocking by policy for the hot pair and for the background traffic.
	HotPair    map[string]stats.Summary
	Background map[string]stats.Summary
}

// FocusedOverload scales the (0, 11) pair by each factor (the pair's
// nominal demand is small, so media-event factors of 25–50× are what it
// takes to saturate its direct link through the reduced-load shielding of
// the congested links around node 11) and measures how the disciplines
// confine the damage. Findings this reproduces: uncontrolled alternate
// routing absorbs the hot pair's overload (its calls overflow onto 2+-hop
// paths) at the expense of background traffic; the controlled scheme
// refuses those alternates — every detour into node 11 crosses a link whose
// chronic overload sets r = C — keeping the background near its
// single-path baseline, which is exactly the protection-of-primaries
// behaviour Theorem 1 prices.
func FocusedOverload(factors []float64, h int, p SimParams) ([]FocusedPoint, error) {
	if factors == nil {
		factors = []float64{1, 10, 25, 50}
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
	hot := [2]graph.NodeID{0, 11}
	var out []FocusedPoint
	for _, factor := range factors {
		m := nominal.Clone()
		m.SetDemand(hot[0], hot[1], nominal.Demand(hot[0], hot[1])*factor)
		scheme, err := core.New(g, m, core.Options{H: h})
		if err != nil {
			return nil, err
		}
		pols, err := threePolicies(scheme)
		if err != nil {
			return nil, err
		}
		pt := FocusedPoint{
			Factor:     factor,
			HotPair:    make(map[string]stats.Summary),
			Background: make(map[string]stats.Summary),
		}
		runs, err := results(g, p.quiet(), poisson(m, p.Horizon), each(pols...))
		if err != nil {
			return nil, err
		}
		hotXs := map[string][]float64{}
		bgXs := map[string][]float64{}
		for _, seedRuns := range runs {
			for _, res := range seedRuns {
				hotOff := res.PerPairOffered[hot]
				hotBlk := res.PerPairBlocked[hot]
				if hotOff > 0 {
					hotXs[res.Policy] = append(hotXs[res.Policy], float64(hotBlk)/float64(hotOff))
				}
				bgOff := res.Offered - hotOff
				bgBlk := res.Blocked - hotBlk
				if bgOff > 0 {
					bgXs[res.Policy] = append(bgXs[res.Policy], float64(bgBlk)/float64(bgOff))
				}
			}
		}
		for name, xs := range hotXs {
			pt.HotPair[name] = stats.Summarize(xs)
		}
		for name, xs := range bgXs {
			pt.Background[name] = stats.Summarize(xs)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderFocused prints the study.
func RenderFocused(points []FocusedPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Focused overload on pair 0→11 (NSFNet, background at nominal)\n")
	fmt.Fprintf(&b, "%-8s %-36s %-36s\n", "factor", "hot-pair blocking  S/U/C", "background blocking  S/U/C")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g %11.5f %11.5f %11.5f  %11.5f %11.5f %11.5f\n",
			pt.Factor,
			pt.HotPair["single-path"].Mean,
			pt.HotPair["uncontrolled-alternate"].Mean,
			pt.HotPair["controlled-alternate"].Mean,
			pt.Background["single-path"].Mean,
			pt.Background["uncontrolled-alternate"].Mean,
			pt.Background["controlled-alternate"].Mean)
	}
	return b.String()
}
