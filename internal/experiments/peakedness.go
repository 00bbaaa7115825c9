package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/paths"
	"repro/internal/sim"
)

// recordingPolicy wraps a policy and timestamps every admitted
// alternate-routed call per link it traverses, so the overflow arrival
// process offered to each link can be characterized after the run.
type recordingPolicy struct {
	sim.Policy
	// counts[link][window] accumulates admitted alternate arrivals.
	counts [][]int64
	warmup float64
	window float64
	nwin   int
}

func newRecordingPolicy(inner sim.Policy, links, nwin int, warmup, window float64) *recordingPolicy {
	counts := make([][]int64, links)
	for i := range counts {
		counts[i] = make([]int64, nwin)
	}
	return &recordingPolicy{Policy: inner, counts: counts, warmup: warmup, window: window, nwin: nwin}
}

// Route implements sim.Policy.
func (rp *recordingPolicy) Route(s *sim.State, c sim.Call) (paths.Path, bool, bool) {
	p, alt, ok := rp.Policy.Route(s, c)
	if ok && alt && c.Arrival >= rp.warmup {
		w := int((c.Arrival - rp.warmup) / rp.window)
		if w >= 0 && w < rp.nwin {
			for _, id := range p.Links {
				rp.counts[id][w]++
			}
		}
	}
	return p, alt, ok
}

// PeakednessRow characterizes one link's measured overflow stream.
type PeakednessRow struct {
	Link     graph.LinkID
	From, To graph.NodeID
	// MeanRate is admitted alternate arrivals per unit time.
	MeanRate float64
	// IDC is the index of dispersion of per-window counts (variance/mean);
	// 1 for a Poisson stream, > 1 for peaked (bursty) overflow.
	IDC float64
	// ClassicalZ is the Wilkinson peakedness the link's primary group would
	// produce if its overflow went uncontrolled to an infinite group — the
	// classical-teletraffic reference point.
	ClassicalZ float64
}

// PeakednessResult is the assumption-A1 study: the paper assumes
// alternate-routed calls arrive at a link as a (state-dependent) Poisson
// process; classical theory says overflow is peaked. This experiment
// measures the index of dispersion of the admitted alternate stream per
// link under controlled routing.
type PeakednessResult struct {
	Load float64
	H    int
	Rows []PeakednessRow
	// MeanIDC averages IDC over links with meaningful overflow volume.
	MeanIDC float64
}

// Peakedness runs the study on NSFNet at the given load multiplier.
func Peakedness(load float64, h int, p SimParams) (*PeakednessResult, error) {
	if load <= 0 {
		load = 10
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
	m := nominal.Scaled(load / 10)
	scheme, err := core.New(g, m, core.Options{H: h})
	if err != nil {
		return nil, err
	}
	const window = 1.0
	nwin := int(p.Horizon - p.Warmup)
	// Each seed records through a fresh policy; the measure keeps its
	// per-link window counts, concatenated below in seed order.
	q := p.quiet()
	runs := func(int) ([]sim.Config, error) {
		return runsOf(newRecordingPolicy(scheme.Controlled(), g.NumLinks(), nwin, p.Warmup, window)), nil
	}
	counts := func(pol sim.Policy, _ *sim.Result) [][]int64 { return pol.(*recordingPolicy).counts }
	bySeed, err := replay(g, q, poisson(m, p.Horizon), runs, counts).commit(q)
	if err != nil {
		return nil, err
	}
	totals := make([][]int64, g.NumLinks())
	for _, seedRuns := range bySeed {
		for id := range totals {
			totals[id] = append(totals[id], seedRuns[0][id]...)
		}
	}
	res := &PeakednessResult{Load: load, H: h}
	var idcSum float64
	var idcN int
	for id := range totals {
		var sum, sumsq float64
		for _, c := range totals[id] {
			sum += float64(c)
			sumsq += float64(c) * float64(c)
		}
		n := float64(len(totals[id]))
		mean := sum / n
		if mean*n < 50 { // too few overflow arrivals to characterize
			continue
		}
		variance := sumsq/n - mean*mean
		l := g.Link(graph.LinkID(id))
		row := PeakednessRow{
			Link: graph.LinkID(id), From: l.From, To: l.To,
			MeanRate:   mean / window,
			IDC:        variance / mean,
			ClassicalZ: erlang.Peakedness(scheme.LinkLoads[id], l.Capacity),
		}
		res.Rows = append(res.Rows, row)
		idcSum += row.IDC
		idcN++
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].MeanRate > res.Rows[j].MeanRate })
	if idcN > 0 {
		res.MeanIDC = idcSum / float64(idcN)
	}
	return res, nil
}

// String renders the study.
func (r *PeakednessResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Assumption-A1 study: overflow arrival dispersion per link (NSFNet load=%.3g, H=%d)\n", r.Load, r.H)
	fmt.Fprintf(&b, "%-10s %12s %10s %14s\n", "link", "overflow/ut", "IDC", "classical z")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%3d→%-6d %12.3f %10.3f %14.3f\n", row.From, row.To, row.MeanRate, row.IDC, row.ClassicalZ)
	}
	fmt.Fprintf(&b, "mean IDC over %d links: %.3f (Poisson = 1; classical uncontrolled overflow would be the z column)\n",
		len(r.Rows), r.MeanIDC)
	return b.String()
}
