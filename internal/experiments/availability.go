package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Availability is the dynamic-failure study: service quality versus
// per-link outage rate under random link failures and repairs injected
// mid-run (sim.FailurePlan). Three views of the same runs: Blocking is the
// classical blocked-at-arrival fraction, Lost the in-flight calls torn
// down by failures per offered call, and Unserved their sum — the fraction
// of offered calls that did not complete service.
type Availability struct {
	// MTTR is the mean repair time (holding times) every point shares.
	MTTR float64
	// Failover is the in-flight handling mode the runs used.
	Failover sim.FailoverMode
	// Blocking, Lost and Unserved are one series per policy, X = per-link
	// failure rate (1/MTBF).
	Blocking, Lost, Unserved *Sweep
}

// Render prints the three sweeps.
func (a *Availability) Render(w *strings.Builder) {
	a.Blocking.Render(w)
	fmt.Fprintln(w)
	a.Lost.Render(w)
	fmt.Fprintln(w)
	a.Unserved.Render(w)
}

// String renders the study.
func (a *Availability) String() string {
	var b strings.Builder
	a.Render(&b)
	return b.String()
}

// DefaultOutageRates is the default failure-rate grid of the availability
// study, in failures per link per holding time: from rare outages to a
// regime where some trunk is down most of the time.
var DefaultOutageRates = []float64{0.002, 0.005, 0.01, 0.02, 0.05}

// AvailabilitySweep runs the availability study on one topology: the
// scheme is derived once from the nominal (all-up) network, then for every
// outage rate and seed a random failure/repair plan (duplex trunks, mean
// up time 1/rate, mean repair time mttr) is injected into runs of
// single-path, uncontrolled, controlled-frozen and controlled-adapted
// (AdaptRederive) routing, all replaying the identical trace and identical
// plan (common random numbers across policies). Points execute
// concurrently on the engine's worker pool and merge in grid order —
// results and any attached sink's stream are bit-identical at every
// Parallelism setting and GOMAXPROCS.
func AvailabilitySweep(name string, g *graph.Graph, m *traffic.Matrix,
	rates []float64, h int, mttr float64,
	mode sim.FailoverMode, p SimParams) (*Availability, error) {
	if len(rates) == 0 {
		rates = DefaultOutageRates
	}
	if mttr <= 0 {
		mttr = 0.5
	}
	p = p.withDefaults()
	cache := erlang.NewCache()
	scheme, err := core.New(g, m, core.Options{H: h, ErlangCache: cache})
	if err != nil {
		return nil, err
	}
	static := []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()}
	names := make([]string, 0, len(static)+1)
	for _, pol := range static {
		names = append(names, pol.Name())
	}
	adaptedName := scheme.Adaptive(core.AdaptRederive, cache).Policy().Name()
	names = append(names, adaptedName)

	// measures indexes the three per-run fractions.
	const (
		mBlocking = iota
		mLost
		mUnserved
		numMeasures
	)
	type pointResult struct {
		// samples[measure][policy] collects one value per seed.
		samples [numMeasures][][]float64
		spans   []float64
		events  *obs.Buffer
		err     error
	}
	results := make([]pointResult, len(rates))
	parallelFor(len(rates), p.workers(), func(pt int) {
		pr := &results[pt]
		for mi := range pr.samples {
			pr.samples[mi] = make([][]float64, len(names))
		}
		var sink obs.Sink
		if p.Sink != nil {
			pr.events = obs.NewBuffer()
			sink = pr.events
		}
		record := func(pi int, res *sim.Result) {
			off := float64(res.Offered)
			lost := float64(res.LostToFailure)
			pr.samples[mBlocking][pi] = append(pr.samples[mBlocking][pi], res.Blocking())
			pr.samples[mLost][pi] = append(pr.samples[mLost][pi], lost/off)
			pr.samples[mUnserved][pi] = append(pr.samples[mUnserved][pi], (float64(res.Blocked)+lost)/off)
			pr.spans = append(pr.spans, res.Span)
		}
		for seed := 0; seed < p.Seeds && pr.err == nil; seed++ {
			plan, err := sim.GenerateOutages(g, p.Horizon, sim.OutageParams{
				MTBF: 1 / rates[pt], MTTR: mttr, Duplex: true, Seed: int64(seed),
			})
			if err != nil {
				pr.err = err
				return
			}
			tr := sim.GenerateTrace(m, p.Horizon, int64(seed))
			base := sim.Config{
				Graph: g, Trace: tr, Warmup: p.Warmup,
				Failures: plan, Failover: mode,
				Sink: sink, OccupancyEvents: p.OccupancyEvents,
				WindowLength: p.WindowLength,
			}
			for pi, pol := range static {
				cfg := base
				cfg.Policy = pol
				res, err := sim.Run(cfg)
				if err != nil {
					pr.err = fmt.Errorf("experiments: %s rate %g seed %d: %w", pol.Name(), rates[pt], seed, err)
					return
				}
				record(pi, res)
			}
			// The adaptive policy is stateful (its table is swapped at
			// failure epochs): a fresh instance per run, sharing the
			// sweep-wide Erlang cache for the re-derivations.
			ad := scheme.Adaptive(core.AdaptRederive, cache)
			cfg := base
			cfg.Policy = ad.Policy()
			cfg.TopologyHook = ad.Hook()
			res, err := sim.Run(cfg)
			if err != nil {
				pr.err = fmt.Errorf("experiments: %s rate %g seed %d: %w", adaptedName, rates[pt], seed, err)
				return
			}
			record(len(static), res)
		}
	})

	sweeps := [numMeasures]*Sweep{}
	titles := [numMeasures]string{
		fmt.Sprintf("Availability: blocking vs outage rate (%s, MTTR=%g, failover=%s)", name, mttr, mode),
		"Availability: lost-to-failure per offered call",
		"Availability: unserved fraction (blocked + lost)",
	}
	for mi := range sweeps {
		sw := &Sweep{Title: titles[mi], XLabel: "rate"}
		for _, name := range names {
			sw.Series = append(sw.Series, Series{Name: name})
		}
		sweeps[mi] = sw
	}
	for pt := range results {
		pr := &results[pt]
		if pr.events != nil {
			pr.events.FlushTo(p.Sink)
		}
		if p.Metrics != nil {
			for _, span := range pr.spans {
				p.Metrics.AddSpan(span)
			}
		}
		if pr.err != nil {
			return nil, pr.err
		}
		for mi := range sweeps {
			for pi := range names {
				sum := stats.Summarize(pr.samples[mi][pi])
				sweeps[mi].Series[pi].Points = append(sweeps[mi].Series[pi].Points,
					Point{X: rates[pt], Y: sum.Mean, Err: sum.HalfWidth95})
			}
		}
	}
	return &Availability{
		MTTR: mttr, Failover: mode,
		Blocking: sweeps[mBlocking], Lost: sweeps[mLost], Unserved: sweeps[mUnserved],
	}, nil
}

// NSFNetAvailability is AvailabilitySweep on the NSFNet T3 model at the
// given load (nominal = 10), the topology of the paper's §4 failure study.
func NSFNetAvailability(load float64, rates []float64, h int, mttr float64,
	mode sim.FailoverMode, p SimParams) (*Availability, error) {
	if load <= 0 {
		load = 12
	}
	if h <= 0 {
		h = 11
	}
	g := netmodel.NSFNet()
	nominal, err := nsfnetNominal()
	if err != nil {
		return nil, err
	}
	return AvailabilitySweep(fmt.Sprintf("NSFNet load %g, H=%d", load, h),
		g, nominal.Scaled(load/10), rates, h, mttr, mode, p)
}
