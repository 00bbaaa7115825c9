package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// CapacityResult reports the engineering headroom of a network under a
// routing discipline: the largest load multiplier whose simulated blocking
// stays at or below the target.
type CapacityResult struct {
	Policy string
	// Multiplier scales the base matrix; Blocking is the measured value at
	// that multiplier.
	Multiplier, Blocking float64
}

// CapacityHeadroom searches, per discipline, for the largest multiplier of
// the base matrix keeping blocking <= target, by bisection on simulated
// blocking (monotone in load up to noise). It answers the operator's
// question the paper's AT&T motivation poses: how much more traffic does
// controlled alternate routing let the same plant carry at a fixed
// grade of service?
func CapacityHeadroom(g *graph.Graph, base *traffic.Matrix, h int, target float64, p SimParams) ([]CapacityResult, error) {
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("experiments: target blocking %v outside (0,1)", target)
	}
	p = p.withDefaults()
	blockingAt := func(mult float64, pick func(*core.Scheme) sim.Policy) (float64, error) {
		m := base.Scaled(mult)
		scheme, err := core.New(g, m, core.Options{H: h})
		if err != nil {
			return 0, err
		}
		runs, err := results(g, p.quiet(), poisson(m, p.Horizon), each(pick(scheme)))
		if err != nil {
			return 0, err
		}
		var blocked, offered int64
		for _, seedRuns := range runs {
			blocked += seedRuns[0].Blocked
			offered += seedRuns[0].Offered
		}
		if offered == 0 {
			return 0, nil
		}
		return float64(blocked) / float64(offered), nil
	}

	disciplines := []struct {
		name string
		pick func(*core.Scheme) sim.Policy
	}{
		{"single-path", func(s *core.Scheme) sim.Policy { return s.SinglePath() }},
		{"controlled-alternate", func(s *core.Scheme) sim.Policy { return s.Controlled() }},
	}
	var out []CapacityResult
	for _, d := range disciplines {
		lo, hi := 0.1, 1.0
		bHi, err := blockingAt(hi, d.pick)
		if err != nil {
			return nil, err
		}
		for bHi <= target && hi < 64 {
			lo = hi
			hi *= 2
			if bHi, err = blockingAt(hi, d.pick); err != nil {
				return nil, err
			}
		}
		// Bisection to ~1% of the multiplier.
		for i := 0; i < 12 && hi-lo > 0.01*hi; i++ {
			mid := (lo + hi) / 2
			b, err := blockingAt(mid, d.pick)
			if err != nil {
				return nil, err
			}
			if b <= target {
				lo = mid
			} else {
				hi = mid
			}
		}
		bLo, err := blockingAt(lo, d.pick)
		if err != nil {
			return nil, err
		}
		out = append(out, CapacityResult{Policy: d.name, Multiplier: lo, Blocking: bLo})
	}
	return out, nil
}

// RenderCapacity prints the headroom comparison.
func RenderCapacity(target float64, results []CapacityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Capacity headroom at %.2g%% grade of service\n", target*100)
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "policy", "multiplier", "blocking")
	for _, r := range results {
		fmt.Fprintf(&b, "%-24s %12.3f %12.5f\n", r.Policy, r.Multiplier, r.Blocking)
	}
	if len(results) == 2 && results[0].Multiplier > 0 {
		fmt.Fprintf(&b, "controlled alternate routing carries %.1f%% more traffic at the target\n",
			100*(results[1].Multiplier/results[0].Multiplier-1))
	}
	return b.String()
}
