package altroute_test

// One benchmark per table and figure of the paper (see DESIGN.md's
// per-experiment index), plus micro-benchmarks of the underlying machinery
// and ablation benches for the design choices. Benchmarks run scaled-down
// replications (1 seed, short horizons) so the full suite completes in
// minutes; the cmd/altsim harness runs the paper-fidelity versions.

import (
	"math/rand"
	"strconv"
	"testing"

	altroute "repro"
	"repro/internal/dalfar"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/paths"
)

// benchParams is the scaled-down replication used inside benchmarks.
var benchParams = altroute.SimParams{Seeds: 1, Warmup: 5, Horizon: 30}

func BenchmarkFig2ProtectionCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := altroute.Fig2(0, nil); len(res.Curves) != 3 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig3Quadrangle(b *testing.B) {
	// Figure 3 (linear axis): the full policy comparison at the crossover
	// region loads.
	for i := 0; i < b.N; i++ {
		if _, err := altroute.QuadrangleFigure([]float64{85, 90, 95}, 0, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4QuadrangleLowLoad(b *testing.B) {
	// Figure 4 (log axis) emphasizes the low-load regime.
	for i := 0; i < b.N; i++ {
		if _, err := altroute.QuadrangleFigure([]float64{65, 75}, 0, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := altroute.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Verify(1e-4, 26); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6NSFNet(b *testing.B) {
	// Figure 6 (linear axis): nominal and above.
	for i := 0; i < b.N; i++ {
		if _, err := altroute.NSFNetFigure([]float64{10, 12}, 11, false, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7NSFNetLowLoad(b *testing.B) {
	// Figure 7 (log axis) emphasizes loads below nominal.
	for i := 0; i < b.N; i++ {
		if _, err := altroute.NSFNetFigure([]float64{6, 8}, 11, false, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkH6CensusAndSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := altroute.AlternateCensus(6); err != nil {
			b.Fatal(err)
		}
		if _, err := altroute.NSFNetFigure([]float64{10}, 6, false, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LinkFailures([]float64{12}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Skewness(10, 6, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinLossOptimizer(b *testing.B) {
	g := altroute.NSFNet()
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.MinLossPrimaries(g, m, optimize.Options{MaxIterations: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinLossStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MinLossStudy([]float64{10}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOttKrishnanSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := altroute.NSFNetFigure([]float64{12}, 11, true, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMitraGibbens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.MitraGibbens(experiments.MitraGibbensOptions{
			Loads: []float64{115},
			MaxR:  6,
			Sim:   altroute.SimParams{Seeds: 1, Warmup: 5, Horizon: 25},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Cellular([]float64{48}, experiments.SimParams{Seeds: 2, Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness([]float64{10}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Signaling([]float64{0, 0.01}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErlangBoundNSFNet(b *testing.B) {
	g := altroute.NSFNet()
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := altroute.ErlangBound(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core machinery ---

func BenchmarkErlangB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		altroute.ErlangB(87.3, 100)
	}
}

func BenchmarkProtectionLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		altroute.ProtectionLevel(87.3, 100, 11)
	}
}

func BenchmarkTraceGenerationNSFNet(b *testing.B) {
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := altroute.GenerateTrace(m, 110, int64(i))
		if len(tr.Calls) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkRouteTableBuildNSFNet(b *testing.B) {
	g := altroute.NSFNet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := altroute.BuildRouteTable(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyNSFNet measures one nominal-load simulation run per policy
// (an ablation of per-call routing cost).
func BenchmarkPolicyNSFNet(b *testing.B) {
	g := altroute.NSFNet()
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := altroute.NewScheme(g, m, altroute.SchemeOptions{H: 11})
	if err != nil {
		b.Fatal(err)
	}
	ok, err := scheme.OttKrishnan()
	if err != nil {
		b.Fatal(err)
	}
	tr := altroute.GenerateTrace(m, 40, 1)
	for _, pol := range []altroute.Policy{
		scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled(), ok,
	} {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := altroute.Run(altroute.RunConfig{
					Graph: g, Policy: pol, Trace: tr, Warmup: 5,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Simulation-core throughput guards (BENCH.json: BenchmarkRunCalls records) ---

// BenchmarkRunCalls measures end-to-end simulation throughput in calls/sec:
// arrival generation plus the full event loop, NSFNet at nominal load under
// the controlled policy. The "replay" variant isolates the event loop by
// reusing one pregenerated trace; "stream" regenerates arrivals every
// iteration
// (the long-horizon usage streaming generation exists for).
func BenchmarkRunCalls(b *testing.B) {
	g := altroute.NSFNet()
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := altroute.NewScheme(g, m, altroute.SchemeOptions{H: 11})
	if err != nil {
		b.Fatal(err)
	}
	pol := scheme.Controlled()
	const horizon, warmup = 60, 10

	b.Run("stream", func(b *testing.B) {
		var calls int64
		carried := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, err := altroute.NewArrivalStream(m, horizon, 1)
			if err != nil {
				b.Fatal(err)
			}
			res, err := altroute.Run(altroute.RunConfig{Graph: g, Policy: pol, Source: src, Warmup: warmup})
			if err != nil {
				b.Fatal(err)
			}
			calls += res.Offered
			carried = res.Throughput()
		}
		b.StopTimer()
		b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "calls/sec")
		b.ReportMetric(carried, "carried/unit")
	})

	tr := altroute.GenerateTrace(m, horizon, 1)
	b.Run("replay", func(b *testing.B) {
		var calls int64
		carried := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := altroute.Run(altroute.RunConfig{Graph: g, Policy: pol, Trace: tr, Warmup: warmup})
			if err != nil {
				b.Fatal(err)
			}
			calls += res.Offered
			carried = res.Throughput()
		}
		b.StopTimer()
		b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "calls/sec")
		b.ReportMetric(carried, "carried/unit")
	})
}

// --- Host-speed reference (BENCH.json: the "per" of the BenchmarkRunCalls calls/sec records) ---

// A shared host's speed drifts by up to 2× between spells, so an absolute
// calls/sec floor fails on unchanged code. BenchmarkHostReference is the
// denominator that makes those floors host-relative: a fixed loss network
// on the standard library alone, which never changes with the code under
// test and does the same work every op. Run in the same go test
// invocation as BenchmarkRunCalls, in alternating rounds, it slows with
// the host as the simulator does, and benchguard compares the median
// ratio of the two.
//
// Every ordered pair of a refRing-node ring offers Poisson calls at
// refRate that hold one circuit on each link of the clockwise arc from
// origin to destination for an exponential time of mean 1, or are lost
// when a link of the arc is full. The pairs' next arrivals sit on a
// binary min-heap, in-progress calls on another; one seeded math/rand
// generator draws every epoch.
const (
	refRing, refCap, refCalls = 10, 30, 40_000
	// Each link lies on the arcs of refRing·(refRing−1)/2 pairs, so this
	// rate offers each link its capacity in Erlangs.
	refRate = float64(refCap) / (refRing * (refRing - 1) / 2)
)

// refEvent is a pair's next arrival, or an in-progress call's departure.
type refEvent struct {
	at   float64
	pair int32
}

// refHeap is a binary min-heap of events by epoch.
type refHeap []refEvent

func (h refHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	e := s[0]
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	h.down(0)
	return e
}

// refArc returns the first link and hop count of a pair's clockwise arc;
// link k joins node k to node k+1 (mod refRing).
func refArc(pair int32) (first, hops int) {
	o, d := int(pair)/(refRing-1), int(pair)%(refRing-1)
	if d >= o {
		d++ // skip the origin itself
	}
	return o, (d - o + refRing) % refRing
}

// hostReference simulates refCalls arrivals from the same seed every time
// and returns how many were lost.
func hostReference(arr, deps refHeap) (lost int) {
	g := rand.New(rand.NewSource(1))
	var occ [refRing]int
	arr, deps = arr[:0], deps[:0]
	for p := int32(0); p < refRing*(refRing-1); p++ {
		arr.push(refEvent{g.ExpFloat64() / refRate, p})
	}
	for c := 0; c < refCalls; c++ {
		e := arr[0]
		for len(deps) > 0 && deps[0].at <= e.at {
			first, hops := refArc(deps.pop().pair)
			for h := 0; h < hops; h++ {
				occ[(first+h)%refRing]--
			}
		}
		first, hops := refArc(e.pair)
		admit := true
		for h := 0; h < hops && admit; h++ {
			admit = occ[(first+h)%refRing] < refCap
		}
		if admit {
			for h := 0; h < hops; h++ {
				occ[(first+h)%refRing]++
			}
			deps.push(refEvent{e.at + g.ExpFloat64(), e.pair})
		} else {
			lost++
		}
		arr[0].at += g.ExpFloat64() / refRate
		arr.down(0)
	}
	return lost
}

// BenchmarkHostReference reports the reference network's calls/sec.
func BenchmarkHostReference(b *testing.B) {
	arr := make(refHeap, 0, refRing*(refRing-1))
	deps := make(refHeap, 0, refRing*refCap)
	lost := 0
	for i := 0; i < b.N; i++ {
		lost = hostReference(arr, deps)
	}
	b.StopTimer()
	if lost == 0 || lost == refCalls {
		b.Fatalf("%d of %d reference calls lost: the network is not loaded as intended", lost, refCalls)
	}
	b.ReportMetric(float64(b.N)*refCalls/b.Elapsed().Seconds(), "calls/sec")
}

// BenchmarkEq15Search measures the Equation-15 protection-level derivation
// as the scheme construction performs it: one search per link, across a
// grid of load scalings of both paper networks (the shape of the
// capacity/robustness sweeps). The "cold" variant starts every grid pass
// with an empty Erlang cache, so it measures batch derivation with only
// within-pass symmetry dedup; "shared" reuses one cache across passes — the
// steady state of a sweep service re-deriving schemes over recurring link
// profiles.
func BenchmarkEq15Search(b *testing.B) {
	type network struct {
		loads []float64
		caps  []int
		h     int
	}
	collect := func(g *altroute.Graph, loads []float64, h int) network {
		caps := make([]int, g.NumLinks())
		for id := range caps {
			caps[id] = g.Link(altroute.LinkID(id)).Capacity
		}
		return network{loads: loads, caps: caps, h: h}
	}
	qg := altroute.Quadrangle()
	qm := altroute.UniformMatrix(4, 90)
	qs, err := altroute.NewScheme(qg, qm, altroute.SchemeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ng := altroute.NSFNet()
	nm, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	ns, err := altroute.NewScheme(ng, nm, altroute.SchemeOptions{H: 11})
	if err != nil {
		b.Fatal(err)
	}
	nets := []network{collect(qg, qs.LinkLoads, qs.H), collect(ng, ns.LinkLoads, ns.H)}
	scales := []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4}
	pass := func(cache *altroute.ErlangCache) int {
		sum := 0
		for _, net := range nets {
			scaled := make([]float64, len(net.loads))
			for _, scale := range scales {
				for id, l := range net.loads {
					scaled[id] = l * scale
				}
				for _, r := range altroute.ProtectionLevels(scaled, net.caps, net.h, cache) {
					sum += r
				}
			}
		}
		return sum
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pass(altroute.NewErlangCache()) == 0 {
				b.Fatal("degenerate protection levels")
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		cache := altroute.NewErlangCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pass(cache) == 0 {
				b.Fatal("degenerate protection levels")
			}
		}
	})
}

// --- Observability overhead guard (BENCH.json: BenchmarkRun{Bare,Instrumented,Timeseries}) ---

// noopSink is the cheapest possible attached sink; the pair of benchmarks
// below isolates the cost of the emission sites themselves (event
// construction + interface dispatch), not of any consumer.
type noopSink struct{}

func (noopSink) Event(*altroute.Event) {}

func benchObsRun(b *testing.B, sink altroute.EventSink) {
	g := altroute.Quadrangle()
	m := altroute.UniformMatrix(4, 90)
	scheme, err := altroute.NewScheme(g, m, altroute.SchemeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pol := scheme.Controlled()
	tr := altroute.GenerateTrace(m, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := altroute.Run(altroute.RunConfig{
			Graph: g, Policy: pol, Trace: tr, Warmup: 5, Sink: sink,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBare is the disabled-observability baseline: a nil sink reduces
// every emission site to a single predictable branch.
func BenchmarkRunBare(b *testing.B) { benchObsRun(b, nil) }

// BenchmarkRunInstrumented attaches a no-op sink, paying full event
// construction and dispatch at every site.
func BenchmarkRunInstrumented(b *testing.B) { benchObsRun(b, noopSink{}) }

// BenchmarkRunTimeseries attaches a live streaming time-series folder
// (window width 5, ring of 64 windows, regime detector on), the heaviest
// first-party consumer: every event folds lock-free into windowed counters,
// with a mutex taken only at window and run boundaries. Its marginal cost
// is its ns/op record in BENCH.json against BenchmarkRunInstrumented's.
func BenchmarkRunTimeseries(b *testing.B) {
	series, err := altroute.NewTimeSeries(altroute.TimeSeriesOptions{
		Width:    5,
		Capacity: 64,
		Detector: &altroute.RegimeDetectorConfig{},
	})
	if err != nil {
		b.Fatal(err)
	}
	benchObsRun(b, series)
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationProtectionLevel compares blocking across uniform
// protection levels around the Equation-15 choice on the quadrangle at 95 E,
// reporting blocked calls as a custom metric (lower is better).
func BenchmarkAblationProtectionLevel(b *testing.B) {
	g := altroute.Quadrangle()
	load := 95.0
	m := altroute.UniformMatrix(4, load)
	tbl, err := altroute.BuildRouteTable(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	eq15 := altroute.ProtectionLevel(load, 100, 3)
	for _, r := range []int{0, eq15 / 2, eq15, eq15 * 2, 100} {
		rs := make([]int, g.NumLinks())
		for i := range rs {
			rs[i] = r
		}
		pol := altroute.NewControlledPolicy(tbl, rs)
		b.Run(benchName("r", r), func(b *testing.B) {
			var blocked, offered int64
			for i := 0; i < b.N; i++ {
				tr := altroute.GenerateTrace(m, 40, int64(i))
				res, err := altroute.Run(altroute.RunConfig{Graph: g, Policy: pol, Trace: tr, Warmup: 5})
				if err != nil {
					b.Fatal(err)
				}
				blocked += res.Blocked
				offered += res.Offered
			}
			b.ReportMetric(float64(blocked)/float64(offered), "blocking")
		})
	}
}

// BenchmarkAblationH compares the H design parameter on NSFNet at nominal.
func BenchmarkAblationH(b *testing.B) {
	g := altroute.NSFNet()
	m, err := altroute.NSFNetNominalMatrix()
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{2, 4, 6, 11} {
		scheme, err := altroute.NewScheme(g, m, altroute.SchemeOptions{H: h})
		if err != nil {
			b.Fatal(err)
		}
		pol := scheme.Controlled()
		b.Run(benchName("H", h), func(b *testing.B) {
			var blocked, offered int64
			for i := 0; i < b.N; i++ {
				tr := altroute.GenerateTrace(m, 40, int64(i))
				res, err := altroute.Run(altroute.RunConfig{Graph: g, Policy: pol, Trace: tr, Warmup: 5})
				if err != nil {
					b.Fatal(err)
				}
				blocked += res.Blocked
				offered += res.Offered
			}
			b.ReportMetric(float64(blocked)/float64(offered), "blocking")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

func BenchmarkMultiRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiRate([]float64{90}, experiments.SimParams{Seeds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FixedPointStudy([]float64{10}, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverflowRuleAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OverflowRuleStudy([]float64{12}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRampRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RampRobustness(benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHVariantsAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HVariants([]float64{10}, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFocusedOverload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FocusedOverload([]float64{6}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GeneralMesh(3, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeakedness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Peakedness(10, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrials(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Retrials([]float64{0.5}, 11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Insensitivity(11, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of supporting algorithms ---

func BenchmarkSuurballeDisjointPairNSFNet(b *testing.B) {
	g := altroute.NSFNet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := paths.DisjointPair(g, 0, 7); !ok {
			b.Fatal("no disjoint pair")
		}
	}
}

func BenchmarkKaufmanRoberts(b *testing.B) {
	classes := []altroute.ClassLoad{
		{Erlangs: 60, Bandwidth: 1},
		{Erlangs: 5, Bandwidth: 6},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := altroute.KaufmanRoberts(classes, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactTriangleSolve(b *testing.B) {
	g := altroute.CompleteGraph(3, 2)
	var demands []exact.Demand
	for o := altroute.NodeID(0); o < 3; o++ {
		for d := altroute.NodeID(0); d < 3; d++ {
			if o == d {
				continue
			}
			prim, _ := paths.MinHop(g, o, d)
			alts := paths.Alternates(g, o, d, prim, 2)
			demands = append(demands, exact.Demand{Origin: o, Dest: d, Rate: 2, Routes: []paths.Path{prim, alts[0]}})
		}
	}
	model := exact.Model{Graph: g, Demands: demands, Admit: func(int, paths.Path, []int) bool { return true }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(model, 0, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDalfarConvergence(b *testing.B) {
	g := altroute.NSFNet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dalfar.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel experiment-engine guard (BENCH.json: BenchmarkBlockingSweep records) ---

// BenchmarkBlockingSweep measures a whole blocking sweep — per-point scheme
// derivation, seed replications, and Erlang bounds — sequentially
// (Parallelism=1) and on the parallel engine (Parallelism=0, one worker per
// GOMAXPROCS slot). The two produce bit-identical sweeps by contract (the
// golden parallel-equivalence suite proves it); their wall-clock ratio is
// the speedup, read from the two ns/op records in BENCH.json.
func BenchmarkBlockingSweep(b *testing.B) {
	sweeps := []struct {
		name string
		run  func(p altroute.SimParams) error
	}{
		{"nsfnet", func(p altroute.SimParams) error {
			_, err := altroute.NSFNetFigure([]float64{8, 10, 12}, 11, false, p)
			return err
		}},
		{"quadrangle", func(p altroute.SimParams) error {
			_, err := altroute.QuadrangleFigure([]float64{85, 90, 95}, 0, p)
			return err
		}},
	}
	modes := []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel", 0},
	}
	for _, sw := range sweeps {
		for _, mode := range modes {
			b.Run(sw.name+"/"+mode.name, func(b *testing.B) {
				p := altroute.SimParams{Seeds: 4, Warmup: 5, Horizon: 30, Parallelism: mode.parallelism}
				for i := 0; i < b.N; i++ {
					if err := sw.run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
