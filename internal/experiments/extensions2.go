package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fixedpoint"
	"repro/internal/graph"
	"repro/internal/multirate"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// newAdaptive builds a fresh adaptive-controlled policy over the scheme's
// route table (fresh estimator per run so seeds stay independent).
func newAdaptive(g *graph.Graph, scheme *core.Scheme) (sim.Policy, error) {
	est, err := estimate.New(g, 5, 0.3)
	if err != nil {
		return nil, err
	}
	return estimate.NewAdaptiveControlled(scheme.Table, est, 5)
}

// MultiRatePoint is one load point of the multi-rate extension study: a
// voice class (1 unit) and a video class (6 units) on the quadrangle,
// compared across the three disciplines with Kaufman–Roberts-derived
// protection.
type MultiRatePoint struct {
	// VoiceLoad and VideoLoad are per-pair Erlangs of calls; the
	// bandwidth-weighted per-link load is VoiceLoad + 6·VideoLoad.
	VoiceLoad, VideoLoad float64
	// Blocking and BandwidthBlocking by discipline.
	Blocking          map[multirate.Discipline]stats.Summary
	BandwidthBlocking map[multirate.Discipline]stats.Summary
	// VideoBlocking is the wide class's call blocking under each discipline.
	VideoBlocking map[multirate.Discipline]stats.Summary
	// Protection is the derived per-link r (uniform by symmetry).
	Protection int
}

// MultiRate runs the extension study over bandwidth-weighted link loads
// (nil = {70, 80, 85, 90, 95, 100}), split 70% voice / 30% video by
// bandwidth share.
func MultiRate(weighted []float64, seeds int) ([]MultiRatePoint, error) {
	if weighted == nil {
		weighted = []float64{70, 80, 85, 90, 95, 100}
	}
	if seeds <= 0 {
		seeds = 5
	}
	g := netmodel.Quadrangle()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		return nil, err
	}
	var out []MultiRatePoint
	for _, w := range weighted {
		voice := 0.7 * w
		video := 0.3 * w / 6
		classes := []multirate.Class{
			{Name: "voice", Bandwidth: 1, Demand: traffic.Uniform(4, voice)},
			{Name: "video", Bandwidth: 6, Demand: traffic.Uniform(4, video)},
		}
		prot, err := multirate.DeriveProtection(g, tbl, classes)
		if err != nil {
			return nil, err
		}
		pt := MultiRatePoint{
			VoiceLoad:         voice,
			VideoLoad:         video,
			Blocking:          map[multirate.Discipline]stats.Summary{},
			BandwidthBlocking: map[multirate.Discipline]stats.Summary{},
			VideoBlocking:     map[multirate.Discipline]stats.Summary{},
			Protection:        prot[0],
		}
		samples := map[multirate.Discipline][]float64{}
		bwSamples := map[multirate.Discipline][]float64{}
		vidSamples := map[multirate.Discipline][]float64{}
		for seed := 0; seed < seeds; seed++ {
			tr, err := multirate.GenerateTrace(classes, 110, int64(seed))
			if err != nil {
				return nil, err
			}
			for _, d := range []multirate.Discipline{multirate.SinglePath, multirate.Uncontrolled, multirate.Controlled} {
				res, err := multirate.Run(multirate.Config{
					Graph: g, Table: tbl, Discipline: d, Protection: prot, Trace: tr, Warmup: 10,
				})
				if err != nil {
					return nil, err
				}
				samples[d] = append(samples[d], res.Blocking())
				bwSamples[d] = append(bwSamples[d], res.BandwidthBlocking())
				vidSamples[d] = append(vidSamples[d], res.ClassBlockingProb(1))
			}
		}
		for d, xs := range samples {
			pt.Blocking[d] = stats.Summarize(xs)
			pt.BandwidthBlocking[d] = stats.Summarize(bwSamples[d])
			pt.VideoBlocking[d] = stats.Summarize(vidSamples[d])
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderMultiRate prints the study.
func RenderMultiRate(points []MultiRatePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-rate extension: voice (1u) + video (6u) on the quadrangle (C=100)\n")
	fmt.Fprintf(&b, "%-12s %4s  %-32s %-32s\n", "E(bw)/link", "r", "call blocking  S/U/C", "video blocking S/U/C")
	for _, pt := range points {
		w := pt.VoiceLoad + 6*pt.VideoLoad
		fmt.Fprintf(&b, "%-12.3g %4d  %9.5f %9.5f %9.5f  %9.5f %9.5f %9.5f\n",
			w, pt.Protection,
			pt.Blocking[multirate.SinglePath].Mean,
			pt.Blocking[multirate.Uncontrolled].Mean,
			pt.Blocking[multirate.Controlled].Mean,
			pt.VideoBlocking[multirate.SinglePath].Mean,
			pt.VideoBlocking[multirate.Uncontrolled].Mean,
			pt.VideoBlocking[multirate.Controlled].Mean)
	}
	return b.String()
}

// FixedPointPoint compares the analytic reduced-load prediction with the
// simulated single-path blocking at one NSFNet load.
type FixedPointPoint struct {
	Load      float64
	Analytic  float64
	Simulated stats.Summary
	// Iterations of the fixed-point solve.
	Iterations int
}

// FixedPointStudy validates the Erlang fixed-point model against simulation
// across the Figures-6/7 load grid.
func FixedPointStudy(loads []float64, p SimParams) ([]FixedPointPoint, error) {
	if loads == nil {
		loads = []float64{6, 8, 10, 12, 14}
	}
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		return nil, err
	}
	var out []FixedPointPoint
	for _, load := range loads {
		m := nominal.Scaled(load / 10)
		var fpOpts fixedpoint.Options
		if p.Metrics != nil {
			ct := p.Metrics.Solver(fmt.Sprintf("fixedpoint/load%g", load))
			fpOpts.OnIteration = func(iter int, residual float64, elapsed time.Duration) {
				ct.Observe(iter, residual, elapsed.Nanoseconds())
			}
		}
		fp, err := fixedpoint.Solve(g, m, tbl, fpOpts)
		if err != nil {
			return nil, err
		}
		var xs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			tr := sim.GenerateTrace(m, p.Horizon, int64(seed))
			res, err := sim.Run(sim.Config{Graph: g, Policy: policy.SinglePath{T: tbl}, Trace: tr, Warmup: p.Warmup})
			if err != nil {
				return nil, err
			}
			xs = append(xs, res.Blocking())
		}
		out = append(out, FixedPointPoint{
			Load:       load,
			Analytic:   fp.NetworkBlocking,
			Simulated:  stats.Summarize(xs),
			Iterations: fp.Iterations,
		})
	}
	return out, nil
}

// RenderFixedPoint prints the validation table.
func RenderFixedPoint(points []FixedPointPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Erlang fixed-point vs simulated single-path blocking (NSFNet)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %8s\n", "load", "analytic", "simulated", "iters")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g %12.5f %12.5f %8d\n", pt.Load, pt.Analytic, pt.Simulated.Mean, pt.Iterations)
	}
	return b.String()
}

// OverflowRulePoint compares shortest-first against least-busy alternate
// selection (both with Equation-15 protection) at one load.
type OverflowRulePoint struct {
	Load                            float64
	SinglePath, Shortest, LeastBusy stats.Summary
}

// OverflowRuleStudy is the attempt-order ablation on NSFNet.
func OverflowRuleStudy(loads []float64, h int, p SimParams) ([]OverflowRulePoint, error) {
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
	var out []OverflowRulePoint
	for _, load := range loads {
		m := nominal.Scaled(load / 10)
		scheme, err := core.New(g, m, core.Options{H: h})
		if err != nil {
			return nil, err
		}
		pols := []sim.Policy{
			scheme.SinglePath(),
			scheme.Controlled(),
			policy.LeastBusyAlternate{T: scheme.Table, R: scheme.Protection},
		}
		sums, err := runPolicies(g, m, pols, p)
		if err != nil {
			return nil, err
		}
		out = append(out, OverflowRulePoint{
			Load:       load,
			SinglePath: sums["single-path"],
			Shortest:   sums["controlled-alternate"],
			LeastBusy:  sums["least-busy-alternate"],
		})
	}
	return out, nil
}

// RenderOverflowRule prints the ablation.
func RenderOverflowRule(points []OverflowRulePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overflow selection ablation (both protected by Eq. 15), NSFNet\n")
	fmt.Fprintf(&b, "%-8s %14s %16s %16s\n", "load", "single-path", "shortest-first", "least-busy")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.3g %14.5f %16.5f %16.5f\n",
			pt.Load, pt.SinglePath.Mean, pt.Shortest.Mean, pt.LeastBusy.Mean)
	}
	return b.String()
}

// RampPoint is one profile of the nonstationary robustness study.
type RampPoint struct {
	Name                         string
	SinglePath, Static, Adaptive stats.Summary
}

// RampRobustness stresses the §5 robustness claim under nonstationary
// traffic: protection levels engineered for the nominal load (Static) versus
// online-estimated levels (Adaptive), on a load ramp and a diurnal cycle
// that both average the nominal intensity.
func RampRobustness(p SimParams) ([]RampPoint, error) {
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(g, nominal, core.Options{H: 11})
	if err != nil {
		return nil, err
	}
	profiles := []struct {
		name    string
		profile sim.RateProfile
	}{
		{"ramp 0.7→1.3", sim.RampProfile(0.7, 1.3, p.Horizon)},
		{"sine ±30%", sim.SineProfile(0.3, p.Horizon/2)},
	}
	var out []RampPoint
	for _, prof := range profiles {
		var singleXs, staticXs, adaptiveXs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			tr, err := sim.GenerateTraceVarying(nominal, prof.profile, p.Horizon, int64(seed))
			if err != nil {
				return nil, err
			}
			rs, err := sim.Run(sim.Config{Graph: g, Policy: scheme.SinglePath(), Trace: tr, Warmup: p.Warmup})
			if err != nil {
				return nil, err
			}
			rc, err := sim.Run(sim.Config{Graph: g, Policy: scheme.Controlled(), Trace: tr, Warmup: p.Warmup})
			if err != nil {
				return nil, err
			}
			adaptive, err := newAdaptive(g, scheme)
			if err != nil {
				return nil, err
			}
			ra, err := sim.Run(sim.Config{Graph: g, Policy: adaptive, Trace: tr, Warmup: p.Warmup})
			if err != nil {
				return nil, err
			}
			singleXs = append(singleXs, rs.Blocking())
			staticXs = append(staticXs, rc.Blocking())
			adaptiveXs = append(adaptiveXs, ra.Blocking())
		}
		out = append(out, RampPoint{
			Name:       prof.name,
			SinglePath: stats.Summarize(singleXs),
			Static:     stats.Summarize(staticXs),
			Adaptive:   stats.Summarize(adaptiveXs),
		})
	}
	return out, nil
}

// RenderRamp prints the nonstationary study.
func RenderRamp(points []RampPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Nonstationary robustness (NSFNet, mean load = nominal)\n")
	fmt.Fprintf(&b, "%-14s %14s %16s %16s\n", "profile", "single-path", "static r", "adaptive r")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-14s %14.5f %16.5f %16.5f\n",
			pt.Name, pt.SinglePath.Mean, pt.Static.Mean, pt.Adaptive.Mean)
	}
	return b.String()
}

// Discipline accessors keep the test file free of a direct multirate import.
func multiRateSingle() multirate.Discipline     { return multirate.SinglePath }
func multiRateControlled() multirate.Discipline { return multirate.Controlled }
