// Package experiments regenerates every table and figure of the paper's
// evaluation (§4), plus the extension studies DESIGN.md calls out. Each
// experiment returns structured results and can render itself as the rows or
// series the paper reports; cmd/altsim and the top-level benchmarks drive
// these entry points.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// SimParams are the common simulation parameters; the zero value means the
// paper's settings (10 seeds, 100 measured time units after a 10-unit
// warm-up) with observability disabled.
type SimParams struct {
	Seeds   int
	Warmup  float64
	Horizon float64
	// Parallelism caps the worker goroutines each parallel stage of the
	// experiment engine may use: seed runs within a point, load points
	// within a sweep. 0 means GOMAXPROCS; 1 forces fully sequential
	// execution. Results — sweep points, summaries, metrics, and any
	// sink's event stream — are bit-identical at every setting (see
	// DESIGN.md §10 for why).
	Parallelism int
	// Sink, when non-nil, receives every simulated run's event stream (see
	// internal/obs). Runs still execute in parallel with a sink attached:
	// each run buffers its events privately (obs.Buffer) and the engine
	// flushes the buffers in seed order, so the delivered stream is
	// byte-identical to sequential execution.
	Sink obs.Sink
	// Metrics, when non-nil, additionally collects solver convergence
	// traces (fixed point, Equation-15 search). To also count simulation
	// events, include the registry in Sink (it is itself a sink; compose
	// with obs.Multi).
	Metrics *obs.Registry
	// OccupancyEvents forwards per-link occupancy samples to Sink.
	OccupancyEvents bool
	// WindowLength, when positive, makes every run collect the simulator's
	// per-window time series (sim.Config.WindowLength): Result.Windows is
	// populated and window-closed events join the stream. Zero keeps the
	// historical stream byte-identical.
	WindowLength float64
}

func (p SimParams) withDefaults() SimParams {
	if p.Seeds <= 0 {
		p.Seeds = 10
	}
	if p.Warmup <= 0 {
		p.Warmup = 10
	}
	if p.Horizon <= 0 {
		p.Horizon = p.Warmup + 100
	}
	return p
}

// quiet returns p without its observability attachments, for the studies
// whose runs feed no sink or metrics registry.
func (p SimParams) quiet() SimParams {
	p.Sink, p.Metrics, p.OccupancyEvents, p.WindowLength = nil, nil, false, 0
	return p
}

// Point is one measured sweep point: mean blocking over seeds with a 95% CI
// half-width.
type Point struct {
	X, Y, Err float64
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// Sweep is a full blocking-versus-load figure: one series per policy plus
// the Erlang bound.
type Sweep struct {
	Title  string
	XLabel string
	Series []Series
}

// Render prints the sweep as an aligned table (one row per x, one column per
// series), the textual equivalent of the paper's figures.
func (s *Sweep) Render(w *strings.Builder) {
	fmt.Fprintf(w, "%s\n", s.Title)
	fmt.Fprintf(w, "%-10s", s.XLabel)
	for _, ser := range s.Series {
		fmt.Fprintf(w, " %22s", ser.Name)
	}
	fmt.Fprintln(w)
	if len(s.Series) == 0 {
		return
	}
	for i := range s.Series[0].Points {
		fmt.Fprintf(w, "%-10.4g", s.Series[0].Points[i].X)
		for _, ser := range s.Series {
			p := ser.Points[i]
			fmt.Fprintf(w, "    %8.5f ±%8.5f", p.Y, p.Err)
		}
		fmt.Fprintln(w)
	}
}

// String renders the sweep.
func (s *Sweep) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

// replayed is the deferred result of replay: each seed's measures plus the
// side effects — buffered events, recorded spans — that must reach the
// shared sink and metrics registry in seed order. commit delivers them.
type replayed[T any] struct {
	seeds []seedRuns[T]
	// err is the first per-seed error in seed order; seeds then ends at
	// the failing seed.
	err error
}

// seedRuns is one seed's replicate: one measure per completed run in run
// order, the runs' measurement spans, and their events when a sink was
// requested.
type seedRuns[T any] struct {
	measures []T
	spans    []float64
	events   *obs.Buffer
}

// traceFunc generates seed s's trace; runsFunc lists seed s's runs.
type (
	traceFunc func(seed int) (*sim.Trace, error)
	runsFunc  func(seed int) ([]sim.Config, error)
)

// replay is the replicate loop of every sim.Run study. Seed s replays
// trace(s) against each run runs(s) lists — the same trace for every run,
// so the runs compare on common random numbers — and measure keeps what
// the study needs of each run. runs is called once per seed, so a stateful
// policy (estimate.AdaptiveControlled, core.AdaptiveScheme) starts fresh at
// every seed; a listed run sets its Policy and, where it needs them,
// Failures, Failover and TopologyHook, and replay fills in the graph, the
// trace, the warm-up and p's observability options.
//
// Seeds run through replicate on p's worker pool. The shared sink and
// metrics registry are NOT touched: each seed's runs write to a private
// obs.Buffer, and commit delivers everything in seed order, exactly as
// sequential execution would. That split also lets a caller run whole
// points concurrently (BlockingSweep, AvailabilitySweep) and commit them
// in grid order. Studies that emit nothing pass p.quiet().
func replay[T any](g *graph.Graph, p SimParams, trace traceFunc, runs runsFunc,
	measure func(pol sim.Policy, res *sim.Result) T) replayed[T] {
	seeds, err := replicate(p.Seeds, p.workers(), func(seed int) (seedRuns[T], error) {
		var sr seedRuns[T]
		var sink obs.Sink
		if p.Sink != nil {
			sr.events = obs.NewBuffer()
			sink = sr.events
		}
		tr, err := trace(seed)
		if err != nil {
			return sr, err
		}
		cfgs, err := runs(seed)
		if err != nil {
			return sr, err
		}
		for _, cfg := range cfgs {
			cfg.Graph, cfg.Trace, cfg.Warmup = g, tr, p.Warmup
			cfg.Sink, cfg.OccupancyEvents, cfg.WindowLength = sink, p.OccupancyEvents, p.WindowLength
			res, err := sim.Run(cfg)
			if err != nil {
				return sr, fmt.Errorf("experiments: %s seed %d: %w", cfg.Policy.Name(), seed, err)
			}
			sr.measures = append(sr.measures, measure(cfg.Policy, res))
			sr.spans = append(sr.spans, res.Span)
		}
		return sr, nil
	})
	return replayed[T]{seeds: seeds, err: err}
}

// commit performs the ordered half of a replay: it flushes the seeds'
// buffered events into p.Sink, then feeds their spans to p.Metrics, both
// in (seed, run) order — the sequence sequential execution produces (the
// span sum is a float accumulation, so even its order is part of the
// bit-identity contract). It then returns the measures by [seed][run], or
// the first per-seed error; the events and spans recorded up to the error
// are delivered either way, as a sequential loop would have.
func (r replayed[T]) commit(p SimParams) ([][]T, error) {
	for _, sr := range r.seeds {
		if sr.events != nil {
			sr.events.FlushTo(p.Sink)
		}
	}
	if p.Metrics != nil {
		for _, sr := range r.seeds {
			for _, span := range sr.spans {
				// With the registry also attached as a sink, the accumulated
				// span turns its accepted count into the carried-call rate
				// (Snapshot.Throughput; cf. sim.Result.Throughput).
				p.Metrics.AddSpan(span)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	out := make([][]T, len(r.seeds))
	for s, sr := range r.seeds {
		out[s] = sr.measures
	}
	return out, nil
}

// compare is the common reduction: replay and commit, then summarise each
// run's blocking over seeds (in seed order). Summaries come back by run
// index, not by policy name, since two runs may share a name.
func compare(g *graph.Graph, p SimParams, trace traceFunc, runs runsFunc) ([]stats.Summary, error) {
	bs, err := replay(g, p, trace, runs, blocking).commit(p)
	if err != nil {
		return nil, err
	}
	return summarize(bs), nil
}

// summarize folds samples by [seed][run] into one summary per run index,
// taking the seeds in seed order.
func summarize(samples [][]float64) []stats.Summary {
	out := make([]stats.Summary, len(samples[0]))
	xs := make([]float64, len(samples))
	for i := range out {
		for s := range samples {
			xs[s] = samples[s][i]
		}
		out[i] = stats.Summarize(xs)
	}
	return out
}

// blocking is the measure most studies keep: the run's network blocking.
func blocking(_ sim.Policy, res *sim.Result) float64 { return res.Blocking() }

// results is replay keeping every run's whole result, by [seed][run], for
// the studies that pool counters.
func results(g *graph.Graph, p SimParams, trace traceFunc, runs runsFunc) ([][]*sim.Result, error) {
	whole := func(_ sim.Policy, res *sim.Result) *sim.Result { return res }
	return replay(g, p, trace, runs, whole).commit(p)
}

// poisson is the trace generator of the stationary studies: seed s replays
// sim.GenerateTrace(m, horizon, s).
func poisson(m *traffic.Matrix, horizon float64) traceFunc {
	return func(seed int) (*sim.Trace, error) {
		return sim.GenerateTrace(m, horizon, int64(seed)), nil
	}
}

// runsOf lists one run per policy, in order.
func runsOf(pols ...sim.Policy) []sim.Config {
	runs := make([]sim.Config, len(pols))
	for i, pol := range pols {
		runs[i].Policy = pol
	}
	return runs
}

// each is the runs factory of a fixed policy list: every seed runs the
// same policies (they must be stateless per call).
func each(pols ...sim.Policy) runsFunc {
	runs := runsOf(pols...)
	return func(int) ([]sim.Config, error) { return runs, nil }
}

// BlockingSweep runs a load sweep on one topology: for each load point,
// build the scheme (which recomputes protection levels for that load), run
// every requested policy over all seeds, and attach the Erlang bound. Load
// points execute concurrently on the engine's worker pool (p.Parallelism) —
// each point's scheme derivation, seed runs, and Erlang bound form one job —
// and merge in grid order, so the sweep, any attached sink's event stream,
// and the metrics registry are bit-identical to sequential execution.
//
// makeMatrix maps a sweep abscissa to the offered matrix; makePolicies maps
// the derived scheme to the policy set compared at that point. Both must be
// safe for concurrent calls when p.Parallelism != 1 (true of every closure
// in this repository: they read shared immutable inputs and build
// point-local state).
func BlockingSweep(g *graph.Graph, xs []float64, h int,
	makeMatrix func(x float64) *traffic.Matrix,
	makePolicies func(s *core.Scheme) ([]sim.Policy, error),
	p SimParams) (*Sweep, error) {

	p = p.withDefaults()
	// One Erlang cache for the whole sweep: consecutive load points share
	// most of their (load, capacity) pairs on symmetric topologies, so later
	// scheme derivations hit memoized Equation-15 levels (bit-identical to
	// recomputation; the cache is safe for the concurrent fills of parallel
	// points). Tracing bypasses the cache, so the two options do not
	// interact.
	cache := erlang.NewCache()
	type pointOut struct {
		pols  []string          // policy names in comparison order
		runs  replayed[float64] // deferred seed runs (events, spans, blocking)
		bound float64
		// derr is a scheme/policy derivation failure (nothing ran); berr an
		// Erlang-bound failure (the runs completed and must still commit).
		derr, berr error
	}
	outs := make([]pointOut, len(xs))
	parallelFor(len(xs), p.workers(), func(i int) {
		x := xs[i]
		o := &outs[i]
		m := makeMatrix(x)
		opts := core.Options{H: h, ErlangCache: cache}
		if p.Metrics != nil {
			opts.ProtectionTrace = func(link graph.LinkID, r int, ratio float64) {
				p.Metrics.Solver(fmt.Sprintf("eq15/load%g/link%d", x, link)).Observe(r, ratio, 0)
			}
		}
		scheme, err := core.New(g, m, opts)
		if err != nil {
			o.derr = err
			return
		}
		pols, err := makePolicies(scheme)
		if err != nil {
			o.derr = err
			return
		}
		for _, pol := range pols {
			o.pols = append(o.pols, pol.Name())
		}
		o.runs = replay(g, p, poisson(m, p.Horizon), each(pols...), blocking)
		eb, err := bound.ErlangBound(g, m)
		if err != nil {
			o.berr = err
			return
		}
		o.bound = eb.Blocking
	})
	// Deterministic merge in grid order: commit each point's buffered
	// events and spans, then fold its summaries into the series. Errors
	// surface in the same position the sequential loop reported them.
	sweep := &Sweep{XLabel: "load"}
	var names []string
	bySeries := make(map[string][]Point)
	for i, x := range xs {
		o := &outs[i]
		if o.derr != nil {
			return nil, o.derr
		}
		bs, err := o.runs.commit(p)
		if err != nil {
			return nil, err
		}
		if o.berr != nil {
			return nil, o.berr
		}
		sums := summarize(bs)
		for i, name := range o.pols {
			if _, seen := bySeries[name]; !seen {
				names = append(names, name)
			}
			s := sums[i]
			bySeries[name] = append(bySeries[name], Point{X: x, Y: s.Mean, Err: s.HalfWidth95})
		}
		if _, seen := bySeries["erlang-bound"]; !seen {
			names = append(names, "erlang-bound")
		}
		bySeries["erlang-bound"] = append(bySeries["erlang-bound"], Point{X: x, Y: o.bound})
	}
	for _, name := range names {
		sweep.Series = append(sweep.Series, Series{Name: name, Points: bySeries[name]})
	}
	return sweep, nil
}

// SeriesByName returns the named series of a sweep (nil if absent).
func (s *Sweep) SeriesByName(name string) *Series {
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// sortedPairKeys returns map keys in deterministic order for rendering.
func sortedPairKeys[V any](m map[[2]graph.NodeID]V) [][2]graph.NodeID {
	keys := make([][2]graph.NodeID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// nsfnetNominal fetches the shared fitted matrix or fails the experiment.
func nsfnetNominal() (*traffic.Matrix, error) {
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return m, nil
}

// threePolicies is the canonical §4 comparison set.
func threePolicies(s *core.Scheme) ([]sim.Policy, error) {
	return []sim.Policy{s.SinglePath(), s.Uncontrolled(), s.Controlled()}, nil
}

// fourPolicies adds the Ott–Krishnan comparator (§4.2.2).
func fourPolicies(s *core.Scheme) ([]sim.Policy, error) {
	ok, err := s.OttKrishnan()
	if err != nil {
		return nil, err
	}
	return []sim.Policy{s.SinglePath(), s.Uncontrolled(), s.Controlled(), ok}, nil
}
