package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RetrialPoint compares the disciplines under customer retrials at one
// retry probability. Retrials make the offered stream state dependent
// (blocked calls return while congestion likely persists), violating the
// paper's assumption A2; the study measures whether the controlled scheme's
// dominance over single-path routing survives in practice.
type RetrialPoint struct {
	RetryProbability float64
	// Blocking (definitive losses after retries) per policy.
	Single, Uncontrolled, Controlled stats.Summary
	// RetryLoad is the mean re-attempt volume as a fraction of fresh
	// offered calls, under the controlled policy.
	RetryLoad float64
}

// Retrials runs the study on NSFNet at nominal load.
func Retrials(probs []float64, h int, p SimParams) ([]RetrialPoint, error) {
	if probs == nil {
		probs = []float64{0, 0.3, 0.6, 0.9}
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
	pols := []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()}
	var out []RetrialPoint
	for _, prob := range probs {
		bySeed, err := replicate(p.Seeds, p.workers(), func(seed int) ([]*sim.RetrialResult, error) {
			tr := sim.GenerateTrace(nominal, p.Horizon, int64(seed))
			var runs []*sim.RetrialResult
			for _, pol := range pols {
				res, err := sim.RunWithRetrials(sim.RetrialConfig{
					Config:           sim.Config{Graph: g, Policy: pol, Trace: tr, Warmup: p.Warmup},
					RetryProbability: prob,
					MeanBackoff:      0.2,
					Seed:             int64(seed),
				})
				if err != nil {
					return nil, err
				}
				runs = append(runs, res)
			}
			return runs, nil
		})
		if err != nil {
			return nil, err
		}
		pt := RetrialPoint{RetryProbability: prob}
		samples := make([][]float64, len(bySeed))
		var retries, offered int64
		for seed, runs := range bySeed {
			for _, res := range runs {
				samples[seed] = append(samples[seed], res.Blocking())
			}
			// The retry load is measured under the controlled policy.
			retries += runs[2].Retries
			offered += runs[2].Offered
		}
		sums := summarize(samples)
		pt.Single, pt.Uncontrolled, pt.Controlled = sums[0], sums[1], sums[2]
		if offered > 0 {
			pt.RetryLoad = float64(retries) / float64(offered)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderRetrials prints the study.
func RenderRetrials(points []RetrialPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Customer retrials (NSFNet nominal): definitive blocking after re-attempts\n")
	fmt.Fprintf(&b, "%-8s %12s %14s %12s %12s\n", "p(retry)", "single-path", "uncontrolled", "controlled", "retry load")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.2g %12.5f %14.5f %12.5f %12.3f\n",
			pt.RetryProbability, pt.Single.Mean, pt.Uncontrolled.Mean, pt.Controlled.Mean, pt.RetryLoad)
	}
	return b.String()
}
