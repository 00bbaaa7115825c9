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

// policyRuns is the deferred half of a policy comparison: summaries plus
// the side effects — buffered events, recorded spans — that must reach the
// shared sink and metrics registry in deterministic order. Produced by
// runPoliciesDeferred, consumed by commit.
type policyRuns struct {
	// sums maps policy name to its blocking summary over seeds (nil when
	// err is set).
	sums map[string]stats.Summary
	// spans holds every completed run's measurement window in (seed,
	// policy) order — the order the sequential engine fed Metrics.AddSpan.
	spans []float64
	// events holds the runs' event streams concatenated in seed order;
	// non-nil exactly when a sink was requested.
	events *obs.Buffer
	// err is the first per-seed error in seed order.
	err error
}

// runPoliciesDeferred measures mean blocking (over seeds) for each policy
// on the given graph and matrix, replaying the identical trace per seed
// against all policies (common random numbers). Seeds run on a bounded
// worker pool (p.Parallelism workers); per-seed results merge in seed
// order, so the output is bit-identical to the sequential computation. The
// shared sink and metrics registry are NOT touched: each seed's runs write
// to a private obs.Buffer and the buffers concatenate in seed order into
// the returned policyRuns, whose commit delivers everything exactly as
// sequential execution would have. That split lets BlockingSweep run whole
// load points concurrently and still emit a deterministic stream.
//
// Policies consulted here must be stateless per call (true of every policy
// in this repository except estimate.AdaptiveControlled, which callers run
// with a fresh instance per seed anyway).
func runPoliciesDeferred(g *graph.Graph, m *traffic.Matrix, pols []sim.Policy, p SimParams) policyRuns {
	type seedResult struct {
		blocking []float64 // indexed by policy
		spans    []float64 // one per completed run, policy order
		events   *obs.Buffer
		err      error
	}
	results := make([]seedResult, p.Seeds)
	parallelFor(p.Seeds, p.workers(), func(seed int) {
		sr := &results[seed]
		var sink obs.Sink
		if p.Sink != nil {
			sr.events = obs.NewBuffer()
			sink = sr.events
		}
		tr := sim.GenerateTrace(m, p.Horizon, int64(seed))
		sr.blocking = make([]float64, len(pols))
		for i, pol := range pols {
			res, err := sim.Run(sim.Config{
				Graph: g, Policy: pol, Trace: tr, Warmup: p.Warmup,
				Sink: sink, OccupancyEvents: p.OccupancyEvents,
				WindowLength: p.WindowLength,
			})
			if err != nil {
				sr.err = fmt.Errorf("experiments: %s seed %d: %w", pol.Name(), seed, err)
				break
			}
			sr.blocking[i] = res.Blocking()
			sr.spans = append(sr.spans, res.Span)
		}
	})
	var out policyRuns
	if p.Sink != nil {
		out.events = obs.NewBuffer()
	}
	for seed := range results {
		sr := &results[seed]
		if sr.events != nil {
			sr.events.FlushTo(out.events)
		}
		out.spans = append(out.spans, sr.spans...)
		if out.err == nil && sr.err != nil {
			out.err = sr.err
		}
	}
	if out.err != nil {
		return out
	}
	perPolicy := make(map[string][]float64, len(pols))
	for seed := range results {
		for i, pol := range pols {
			perPolicy[pol.Name()] = append(perPolicy[pol.Name()], results[seed].blocking[i])
		}
	}
	out.sums = make(map[string]stats.Summary, len(perPolicy))
	for name, xs := range perPolicy {
		out.sums[name] = stats.Summarize(xs)
	}
	return out
}

// commit performs the ordered half of a policy comparison: it flushes the
// buffered event stream into p.Sink and feeds the recorded spans to
// p.Metrics in (seed, policy) order — exactly the sequence sequential
// execution produced (the span sum is a float accumulation, so even its
// order is part of the bit-identity contract). It then returns the
// summaries, or the first per-seed error; events recorded before the error
// are flushed either way, matching the sequential engine.
func (r policyRuns) commit(p SimParams) (map[string]stats.Summary, error) {
	if r.events != nil {
		r.events.FlushTo(p.Sink)
	}
	if p.Metrics != nil {
		for _, span := range r.spans {
			// With the registry also attached as a sink, the accumulated
			// span turns its accepted count into the carried-call rate
			// (Snapshot.Throughput; cf. sim.Result.Throughput).
			p.Metrics.AddSpan(span)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.sums, nil
}

// runPolicies measures mean blocking (over seeds) for each policy and
// delivers events and metrics immediately: the runPoliciesDeferred/commit
// pair fused for callers that iterate points sequentially.
func runPolicies(g *graph.Graph, m *traffic.Matrix, pols []sim.Policy, p SimParams) (map[string]stats.Summary, error) {
	return runPoliciesDeferred(g, m, pols, p).commit(p)
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
		pols  []string   // policy names in comparison order
		runs  policyRuns // deferred seed runs (events, spans, summaries)
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
		o.runs = runPoliciesDeferred(g, m, pols, p)
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
		sums, err := o.runs.commit(p)
		if err != nil {
			return nil, err
		}
		if o.berr != nil {
			return nil, o.berr
		}
		for _, name := range o.pols {
			if _, seen := bySeries[name]; !seen {
				names = append(names, name)
			}
			s := sums[name]
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

// forEachSeed runs fn for every seed in [0, p.Seeds) on the engine's worker
// pool (p.Parallelism workers) and returns the first error (by seed order).
// fn must only touch per-seed state; aggregate after it returns.
func forEachSeed(p SimParams, fn func(seed int) error) error {
	errs := make([]error, p.Seeds)
	parallelFor(p.Seeds, p.workers(), func(seed int) {
		errs[seed] = fn(seed)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
