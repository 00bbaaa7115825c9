package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/sim"
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
// plan (common random numbers across policies). Points, and the seeds
// within each point, execute on the engine's worker pool; each point is a
// replay committed in grid order, as in BlockingSweep — results and any
// attached sink's stream are bit-identical at every Parallelism setting
// and GOMAXPROCS.
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
	measure := func(_ sim.Policy, res *sim.Result) [numMeasures]float64 {
		off := float64(res.Offered)
		lost := float64(res.LostToFailure)
		return [numMeasures]float64{res.Blocking(), lost / off, (float64(res.Blocked) + lost) / off}
	}
	results := make([]replayed[[numMeasures]float64], len(rates))
	parallelFor(len(rates), p.workers(), func(pt int) {
		runs := func(seed int) ([]sim.Config, error) {
			plan, err := sim.GenerateOutages(g, p.Horizon, sim.OutageParams{
				MTBF: 1 / rates[pt], MTTR: mttr, Duplex: true, Seed: int64(seed),
			})
			if err != nil {
				return nil, err
			}
			// The adaptive policy is stateful (its table is swapped at
			// failure epochs): a fresh instance per seed, sharing the
			// sweep-wide Erlang cache for the re-derivations.
			ad := scheme.Adaptive(core.AdaptRederive, cache)
			cfgs := append(runsOf(static...), sim.Config{Policy: ad.Policy(), TopologyHook: ad.Hook()})
			for i := range cfgs {
				cfgs[i].Failures, cfgs[i].Failover = plan, mode
			}
			return cfgs, nil
		}
		results[pt] = replay(g, p, poisson(m, p.Horizon), runs, measure)
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
		ms, err := results[pt].commit(p)
		if err != nil {
			return nil, err
		}
		for mi := range sweeps {
			samples := make([][]float64, len(ms))
			for seed, runs := range ms {
				for _, run := range runs {
					samples[seed] = append(samples[seed], run[mi])
				}
			}
			for pi, sum := range summarize(samples) {
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
