package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// DefaultNSFNetLoads is the load grid of Figures 6/7: the nominal matrix is
// Load=10 and the sweep scales it linearly, straddling the region where
// uncontrolled alternate routing crosses above single-path routing.
var DefaultNSFNetLoads = []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// NSFNetSweep regenerates Figures 6 and 7 (same data; linear and log axes):
// blocking versus load on the NSFNet T3 model with unlimited alternate path
// lengths (H = 11) — or any other H — for single-path, uncontrolled,
// controlled and Ott–Krishnan routing, with the Erlang bound.
// loads nil means DefaultNSFNetLoads.
func NSFNetSweep(loads []float64, h int, includeOttKrishnan bool, p SimParams) (*Sweep, error) {
	if loads == nil {
		loads = DefaultNSFNetLoads
	}
	if h <= 0 {
		h = 11
	}
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	makePolicies := threePolicies
	if includeOttKrishnan {
		makePolicies = fourPolicies
	}
	sweep, err := BlockingSweep(g, loads, h,
		func(x float64) *traffic.Matrix { return nominal.Scaled(x / 10) },
		makePolicies, p)
	if err != nil {
		return nil, err
	}
	sweep.Title = fmt.Sprintf("Figures 6/7: blocking vs load, NSFNet T3 model (H=%d, nominal=10)", h)
	sweep.XLabel = "load"
	return sweep, nil
}

// PathCensus summarizes the alternate-route suites of a topology under a
// hop limit, the quantity the paper reports in §4.2.2 ("about 9 alternate
// paths, with a maximum of 15 and a minimum of 5" for H=11).
type PathCensus struct {
	H              int
	MeanAlternates float64
	MinAlternates  int
	MaxAlternates  int
	Pairs          int
}

// CensusNSFNet computes the alternate-path census for the NSFNet model,
// read off the min-hop route table the simulations themselves use.
func CensusNSFNet(h int) (*PathCensus, error) {
	g := netmodel.NSFNet()
	t, err := policy.BuildMinHop(g, h)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	c := &PathCensus{H: h, MinAlternates: 1 << 30}
	total := 0
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
		for d := graph.NodeID(0); int(d) < g.NumNodes(); d++ {
			if s == d {
				continue
			}
			alts := t.Routes(s, d).Alternates
			total += len(alts)
			if len(alts) < c.MinAlternates {
				c.MinAlternates = len(alts)
			}
			if len(alts) > c.MaxAlternates {
				c.MaxAlternates = len(alts)
			}
			c.Pairs++
		}
	}
	c.MeanAlternates = float64(total) / float64(c.Pairs)
	return c, nil
}

// String renders the census.
func (c *PathCensus) String() string {
	return fmt.Sprintf("H=%d: %d pairs, alternates mean %.2f min %d max %d",
		c.H, c.Pairs, c.MeanAlternates, c.MinAlternates, c.MaxAlternates)
}

// FailureResult is one link-failure scenario's sweep.
type FailureResult struct {
	Scenario string
	Pair     [2]graph.NodeID
	Sweep    *Sweep
}

// LinkFailures reruns the NSFNet comparison with each of the paper's two
// failure scenarios (duplex links 2↔3 and 7↔9 disabled). The paper reports
// higher blocking overall with the relative position of the curves
// maintained. Protection levels are re-derived for the degraded topology
// (failures change primary routes and hence Λ^k).
func LinkFailures(loads []float64, h int, p SimParams) ([]FailureResult, error) {
	if loads == nil {
		loads = []float64{8, 10, 12}
	}
	if h <= 0 {
		h = 11
	}
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	var out []FailureResult
	scenarios := netmodel.NSFNetFailureScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pair := scenarios[name]
		g := netmodel.NSFNet()
		if err := g.SetDuplexDown(pair[0], pair[1], true); err != nil {
			return nil, err
		}
		sweep, err := BlockingSweep(g, loads, h,
			func(x float64) *traffic.Matrix { return nominal.Scaled(x / 10) },
			threePolicies, p)
		if err != nil {
			return nil, err
		}
		sweep.Title = fmt.Sprintf("Link failure %d↔%d: blocking vs load (H=%d)", pair[0], pair[1], h)
		sweep.XLabel = "load"
		out = append(out, FailureResult{Scenario: name, Pair: pair, Sweep: sweep})
	}
	return out, nil
}

// SkewResult reports the spread of per-O-D-pair blocking for each policy at
// one load: the paper's fairness study ("blocking was most skewed for
// single-path routing, and least skewed for uncontrolled alternate
// routing").
type SkewResult struct {
	Load float64
	H    int
	// PerPolicy maps policy name to summary statistics of the 132 per-pair
	// blocking probabilities (pooled over seeds).
	PerPolicy map[string]stats.Summary
	// CV maps policy name to the coefficient of variation of per-pair
	// blocking, the headline skewness ordering measure.
	CV map[string]float64
	// Skew maps policy name to the sample skewness of per-pair blocking.
	Skew map[string]float64
}

// Skewness runs the per-pair fairness study on NSFNet at the given load
// multiplier (nominal = 10) with H=6 as in the paper.
func Skewness(load float64, h int, p SimParams) (*SkewResult, error) {
	if load <= 0 {
		load = 10
	}
	if h <= 0 {
		h = 6
	}
	p = p.withDefaults()
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	m := nominal.Scaled(load / 10)
	scheme, err := core.New(g, m, core.Options{H: h})
	if err != nil {
		return nil, err
	}
	pols, err := threePolicies(scheme)
	if err != nil {
		return nil, err
	}
	offered := make(map[string]map[[2]graph.NodeID]int64)
	blocked := make(map[string]map[[2]graph.NodeID]int64)
	for _, pol := range pols {
		offered[pol.Name()] = make(map[[2]graph.NodeID]int64)
		blocked[pol.Name()] = make(map[[2]graph.NodeID]int64)
	}
	for seed := 0; seed < p.Seeds; seed++ {
		tr := sim.GenerateTrace(m, p.Horizon, int64(seed))
		for _, pol := range pols {
			res, err := sim.Run(sim.Config{Graph: g, Policy: pol, Trace: tr, Warmup: p.Warmup})
			if err != nil {
				return nil, err
			}
			for k, v := range res.PerPairOffered {
				offered[pol.Name()][k] += v
			}
			for k, v := range res.PerPairBlocked {
				blocked[pol.Name()][k] += v
			}
		}
	}
	out := &SkewResult{
		Load: load, H: h,
		PerPolicy: make(map[string]stats.Summary),
		CV:        make(map[string]float64),
		Skew:      make(map[string]float64),
	}
	for _, pol := range pols {
		var bps []float64
		for _, k := range sortedPairKeys(offered[pol.Name()]) {
			off := offered[pol.Name()][k]
			if off == 0 {
				continue
			}
			bps = append(bps, float64(blocked[pol.Name()][k])/float64(off))
		}
		out.PerPolicy[pol.Name()] = stats.Summarize(bps)
		out.CV[pol.Name()] = stats.CoefficientOfVariation(bps)
		out.Skew[pol.Name()] = stats.Skewness(bps)
	}
	return out, nil
}

// String renders the fairness study.
func (s *SkewResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-O-D-pair blocking spread, NSFNet load=%.3g H=%d\n", s.Load, s.H)
	names := make([]string, 0, len(s.CV))
	for n := range s.CV {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-24s %9s %9s %9s %9s\n", "policy", "mean", "max", "CV", "skewness")
	for _, n := range names {
		sum := s.PerPolicy[n]
		fmt.Fprintf(&b, "%-24s %9.4f %9.4f %9.3f %9.3f\n", n, sum.Mean, sum.Max, s.CV[n], s.Skew[n])
	}
	return b.String()
}
