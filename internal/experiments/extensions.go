package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CellularPoint is one load point of the §3.2 channel-borrowing study.
type CellularPoint struct {
	Load     float64
	Blocking map[cellular.Mode]stats.Summary
	// BorrowShare is the fraction of accepted calls that borrowed, under
	// controlled borrowing.
	BorrowShare float64
}

// Cellular runs the channel-borrowing comparison over a per-cell load grid
// (C=50 channels, co-cell sets of 3 as in the paper's discussion). Of p
// only Seeds and Parallelism apply: the runs keep cellular.Config's
// horizon and warm-up (110 and 10) and feed no sink.
func Cellular(loads []float64, p SimParams) ([]CellularPoint, error) {
	if loads == nil {
		loads = []float64{40, 44, 48, 52, 56, 60}
	}
	p = p.withDefaults()
	var out []CellularPoint
	for _, load := range loads {
		bySeed, err := replicate(p.Seeds, p.workers(), func(seed int) (map[cellular.Mode]*cellular.Result, error) {
			return cellular.Compare(cellular.Config{Load: load, Seed: int64(seed)})
		})
		if err != nil {
			return nil, err
		}
		pt := CellularPoint{Load: load, Blocking: make(map[cellular.Mode]stats.Summary)}
		samples := map[cellular.Mode][]float64{}
		var borrowed, accepted int64
		for _, results := range bySeed {
			for _, mode := range []cellular.Mode{cellular.NoBorrowing, cellular.UncontrolledBorrowing, cellular.ControlledBorrowing} {
				samples[mode] = append(samples[mode], results[mode].Blocking())
			}
			borrowed += results[cellular.ControlledBorrowing].Borrowed
			accepted += results[cellular.ControlledBorrowing].Accepted
		}
		for mode, xs := range samples {
			pt.Blocking[mode] = stats.Summarize(xs)
		}
		if accepted > 0 {
			pt.BorrowShare = float64(borrowed) / float64(accepted)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderCellular prints the study.
func RenderCellular(points []CellularPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Channel borrowing with state protection (C=50, co-cell set 3)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %12s\n",
		"Erlangs", "no-borrow", "uncontrolled", "controlled", "borrow share")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g %14.5f %14.5f %14.5f %12.4f\n",
			pt.Load,
			pt.Blocking[cellular.NoBorrowing].Mean,
			pt.Blocking[cellular.UncontrolledBorrowing].Mean,
			pt.Blocking[cellular.ControlledBorrowing].Mean,
			pt.BorrowShare)
	}
	return b.String()
}

// RobustnessPoint compares the oracle controlled policy (a-priori Λ) against
// the adaptive one (online EWMA estimates) at one load.
type RobustnessPoint struct {
	Load             float64
	Oracle, Adaptive stats.Summary
	SinglePath       stats.Summary
}

// Robustness runs the estimation study on NSFNet: protection levels derived
// online from observed set-ups should track the a-priori configuration
// (§1's claim that links can estimate Λ^k, plus the robustness of state
// protection per Key).
func Robustness(loads []float64, h int, p SimParams) ([]RobustnessPoint, error) {
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
	var out []RobustnessPoint
	for _, load := range loads {
		m := nominal.Scaled(load / 10)
		scheme, err := core.New(g, m, core.Options{H: h})
		if err != nil {
			return nil, err
		}
		runs := func(int) ([]sim.Config, error) {
			adaptive, err := newAdaptive(g, scheme)
			if err != nil {
				return nil, err
			}
			return runsOf(scheme.Controlled(), adaptive, scheme.SinglePath()), nil
		}
		sums, err := compare(g, p.quiet(), poisson(m, p.Horizon), runs)
		if err != nil {
			return nil, err
		}
		out = append(out, RobustnessPoint{Load: load, Oracle: sums[0], Adaptive: sums[1], SinglePath: sums[2]})
	}
	return out, nil
}

// RenderRobustness prints the study.
func RenderRobustness(points []RobustnessPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online Λ estimation vs a-priori Λ (controlled alternate routing, NSFNet)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s\n", "load", "oracle", "adaptive", "single-path")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g %14.5f %14.5f %14.5f\n",
			pt.Load, pt.Oracle.Mean, pt.Adaptive.Mean, pt.SinglePath.Mean)
	}
	return b.String()
}

// SignalingPoint compares instantaneous admission against explicit
// two-phase set-up at increasing per-hop latencies.
type SignalingPoint struct {
	HopDelay        float64
	Blocking        stats.Summary
	MeanSetupRTT    float64
	BookingFailures int64
}

// Signaling runs controlled alternate routing on NSFNet at nominal load
// under the hop-by-hop set-up mechanism of §1 for each latency value.
// delay 0 reproduces the instantaneous results.
func Signaling(delays []float64, h int, p SimParams) ([]SignalingPoint, error) {
	if delays == nil {
		delays = []float64{0, 0.001, 0.01, 0.05}
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
	scheme, err := core.New(g, nominal, core.Options{H: h})
	if err != nil {
		return nil, err
	}
	controlled := scheme.Controlled()
	var out []SignalingPoint
	for _, d := range delays {
		bySeed, err := replicate(p.Seeds, p.workers(), func(seed int) (*sim.SignalingResult, error) {
			return sim.RunSignaling(sim.SignalingConfig{
				Config: sim.Config{
					Graph: g, Policy: controlled, Warmup: p.Warmup,
					Trace: sim.GenerateTrace(nominal, p.Horizon, int64(seed)),
				},
				HopDelay: d,
			})
		})
		if err != nil {
			return nil, err
		}
		pt := SignalingPoint{HopDelay: d}
		var xs []float64
		var rttSum float64
		var accepted int64
		for _, res := range bySeed {
			xs = append(xs, res.Blocking())
			rttSum += res.SetupRTTSum
			accepted += res.Accepted
			pt.BookingFailures += res.BookingFailures
		}
		pt.Blocking = stats.Summarize(xs)
		if accepted > 0 {
			pt.MeanSetupRTT = rttSum / float64(accepted)
		}
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HopDelay < out[j].HopDelay })
	return out, nil
}

// RenderSignaling prints the study.
func RenderSignaling(points []SignalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Two-phase call set-up latency study (controlled routing, NSFNet nominal)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %16s\n", "hop delay", "blocking", "mean RTT", "booking races")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-10.4g %12.5f %12.5f %16d\n",
			pt.HopDelay, pt.Blocking.Mean, pt.MeanSetupRTT, pt.BookingFailures)
	}
	return b.String()
}
