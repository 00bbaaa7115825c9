// Package altroute is a library for controlled alternate routing in
// general-mesh packet-flow networks with per-call bandwidth reservation,
// reproducing Sibal & DeSimone, "Controlling Alternate Routing in
// General-Mesh Packet Flow Networks" (SIGCOMM 1994).
//
// The scheme layers a state-dependent tier over any state-independent (SI)
// routing rule: a call blocked on its SI primary path attempts loop-free
// alternate paths in order of increasing hop length, and each link admits
// alternate-routed calls only while its occupancy is below C−r, where the
// state-protection level r is the smallest value satisfying the paper's
// Equation 15,
//
//	B(Λ, C) / B(Λ, C−r) <= 1/H,
//
// with B the Erlang-B blocking function, Λ the link's primary traffic
// demand, and H the maximum alternate hop length. Under Poisson assumptions
// this guarantees the controlled scheme never performs worse than the SI
// rule alone, while behaving like free alternate routing at low load.
//
// # Quick start
//
//	g := altroute.Quadrangle()                  // 4-node complete network
//	m := altroute.UniformMatrix(4, 90)          // 90 Erlangs per O-D pair
//	scheme, err := altroute.NewScheme(g, m, altroute.SchemeOptions{})
//	if err != nil { ... }
//	trace := altroute.GenerateTrace(m, 110, 1)  // seed 1, horizon 110
//	res, err := altroute.Run(altroute.RunConfig{
//		Graph: g, Policy: scheme.Controlled(), Trace: trace, Warmup: 10,
//	})
//	fmt.Println(res.Blocking())
//
// The experiments subpackage entry points (Fig2, QuadrangleFigure,
// Table1, NSFNetFigure, …) regenerate every table and figure of the paper's
// evaluation; cmd/altsim exposes them on the command line.
package altroute

import (
	"io"
	"net/http"

	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/fixedpoint"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/optimize"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Core graph and routing types.
type (
	// Graph is a directed capacitated multigraph; links are unidirectional
	// with integer call capacities.
	Graph = graph.Graph
	// NodeID identifies a node (dense integers from 0).
	NodeID = graph.NodeID
	// LinkID identifies a directed link (dense integers from 0).
	LinkID = graph.LinkID
	// Link is one unidirectional facility.
	Link = graph.Link
	// Path is a loop-free route (node and link sequences).
	Path = paths.Path
	// Matrix is a dense O-D offered-traffic matrix in Erlangs.
	Matrix = traffic.Matrix
	// Scheme is a fully derived controlled-alternate-routing configuration:
	// route table, per-link primary demands Λ, and protection levels r.
	Scheme = core.Scheme
	// SchemeOptions tunes scheme derivation (H, load overrides).
	SchemeOptions = core.Options
	// RouteTable is the shared per-pair route suite (primary + ordered
	// alternates) consumed by every policy.
	RouteTable = policy.Table
	// WeightedPath is a bifurcated-primary component (path + probability).
	WeightedPath = policy.WeightedPath
)

// Simulation types.
type (
	// Call is one point-to-point call request.
	Call = sim.Call
	// Trace is an immutable arrival sequence replayable against any policy.
	Trace = sim.Trace
	// ArrivalSource yields calls lazily in arrival order; RunConfig.Source
	// accepts one in place of a materialized Trace (O(pairs) memory).
	ArrivalSource = sim.ArrivalSource
	// ArrivalStream is the lazy per-pair Poisson merge behind GenerateTrace;
	// it emits the identical call sequence without materializing it.
	ArrivalStream = sim.Stream
	// Policy routes calls against live network state.
	Policy = sim.Policy
	// RunConfig parameterizes a simulation run.
	RunConfig = sim.Config
	// RunResult aggregates a run's measurements.
	RunResult = sim.Result
	// SignalingConfig parameterizes a run with explicit two-phase call
	// set-up (per-hop latency, booking races).
	SignalingConfig = sim.SignalingConfig
	// SignalingResult extends RunResult with set-up race accounting.
	SignalingResult = sim.SignalingResult
)

// Observability types (see internal/obs). Attach an EventSink via
// RunConfig.Sink to receive the run's typed event stream; a nil sink costs a
// single branch per event site.
type (
	// Event is one typed simulator event (call offered/admitted/blocked/
	// departed, occupancy sample, window close, run markers).
	Event = obs.Event
	// EventKind discriminates Event payloads.
	EventKind = obs.Kind
	// EventSink consumes simulator events. Event receives a pointer to the
	// emitter's one reusable event, valid only for the duration of the
	// call: a sink that keeps an event copies *e, and no sink modifies it.
	EventSink = obs.Sink
	// MetricsRegistry is an EventSink aggregating atomic counters and
	// histograms, plus solver convergence traces, with JSON snapshots.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-exportable registry copy.
	MetricsSnapshot = obs.Snapshot
	// RunTotals is one run's counters re-aggregated from an event stream.
	RunTotals = obs.RunTotals
)

// Observability constructors and helpers.

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewJSONLSink returns a sink that appends one JSON object per event to w
// (buffered; call Flush before reading the destination).
func NewJSONLSink(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// NewRingSink returns a sink retaining the last n events in memory.
func NewRingSink(n int) *obs.Ring { return obs.NewRing(n) }

// MultiSink fans events out to several sinks (nil entries are skipped).
func MultiSink(sinks ...EventSink) EventSink { return obs.Multi(sinks...) }

// ReadEventsJSONL decodes a JSONL event stream written by NewJSONLSink.
func ReadEventsJSONL(r io.Reader) ([]Event, error) { return obs.ReadJSONL(r) }

// AggregateEvents folds an event stream back into per-run totals; for any
// instrumented run, the totals reproduce the corresponding RunResult counters
// (and Blocking) exactly.
func AggregateEvents(events []Event) []RunTotals { return obs.Aggregate(events) }

// Streaming time-series analytics (see internal/obs/timeseries). A
// TimeSeries is itself an EventSink: attach it (alone or via MultiSink) to
// fold the live event stream into fixed-width windows without perturbing the
// run, or fold a recorded stream offline with FoldEventsTimeSeries.
type (
	// TimeSeries folds a typed event stream into windowed per-run series
	// with optional regime-shift detection.
	TimeSeries = timeseries.Folder
	// TimeSeriesOptions parameterizes a TimeSeries (window width, ring
	// capacity, detector thresholds, shift sink and callbacks).
	TimeSeriesOptions = timeseries.Options
	// TimeWindow is one closed (or trailing partial) window of counters and
	// per-link utilizations.
	TimeWindow = timeseries.Window
	// TimeSeriesRun is one run's windowed series, shifts and identity.
	TimeSeriesRun = timeseries.RunSeries
	// RegimeDetectorConfig sets the two-level hysteresis thresholds and
	// dwell count of the regime-shift detector.
	RegimeDetectorConfig = timeseries.DetectorConfig
	// RegimeShift is one confirmed transition of the windowed blocking
	// regime.
	RegimeShift = timeseries.RegimeShift
	// Regime labels the blocking regime (unknown, low, high).
	Regime = timeseries.Regime
)

// NewTimeSeries returns a streaming time-series folder; attach it as an
// EventSink (RunConfig.Sink, possibly via MultiSink).
func NewTimeSeries(opt TimeSeriesOptions) (*TimeSeries, error) { return timeseries.New(opt) }

// FoldEventsTimeSeries folds a recorded event stream into per-run windowed
// series offline, one RunSeries per run marker in the stream.
func FoldEventsTimeSeries(events []Event, opt TimeSeriesOptions) ([]TimeSeriesRun, error) {
	return timeseries.FoldEvents(events, opt)
}

// MetricsHandler returns an http.Handler serving the registry's counters,
// histograms and solver traces — plus any extra collectors, such as a
// *TimeSeries — in Prometheus text exposition format (version 0.0.4, no
// third-party dependencies).
func MetricsHandler(reg *MetricsRegistry, extra ...obs.PromCollector) http.Handler {
	return obs.PromHandler(reg, extra...)
}

// Topologies.

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// Quadrangle returns the paper's fully-connected symmetric 4-node network
// (§4.1), C=100 per direction.
func Quadrangle() *Graph { return netmodel.Quadrangle() }

// NSFNet returns the paper's 12-node NSFNet T3 Backbone model (§4.2).
func NSFNet() *Graph { return netmodel.NSFNet() }

// CompleteGraph returns a fully-connected duplex network on n nodes.
func CompleteGraph(n, capacity int) *Graph { return netmodel.Complete(n, capacity) }

// Metro returns a synthetic metropolitan-area topology: pops fully-meshed
// point-of-presence cliques of popSize nodes joined in a gateway ring by
// duplex trunks. Built for large-network regimes; pair it with
// MetroLocalityMatrix so most load stays pop-local (the altbench
// metro-stream workload runs exactly this pairing).
func Metro(pops, popSize, intraCapacity, trunkCapacity int) *Graph {
	return netmodel.Metro(pops, popSize, intraCapacity, trunkCapacity)
}

// Traffic.

// NewMatrix returns an all-zero n×n traffic matrix.
func NewMatrix(n int) *Matrix { return traffic.NewMatrix(n) }

// UniformMatrix returns a matrix with every off-diagonal entry set to
// demand Erlangs (the §4.1 symmetric workload).
func UniformMatrix(n int, demand float64) *Matrix { return traffic.Uniform(n, demand) }

// MetroLocalityMatrix returns the locality-weighted workload for a
// Metro(pops, popSize, …) topology: intra Erlangs for every ordered pair
// within one pop, inter Erlangs across pops.
func MetroLocalityMatrix(pops, popSize int, intra, inter float64) *Matrix {
	return traffic.MetroLocality(pops, popSize, intra, inter)
}

// NSFNetNominalMatrix returns the reconstructed nominal NSFNet traffic
// matrix (Load=10 of Figures 6/7), fitted so its induced primary link loads
// equal the paper's Table 1. The returned matrix is a shared read-only
// singleton; use Clone or Scaled before mutating.
func NSFNetNominalMatrix() (*Matrix, error) {
	m, _, err := traffic.NSFNetNominal()
	return m, err
}

// Scheme construction.

// NewScheme derives a controlled-alternate-routing configuration for
// min-hop SI primaries: route table, Λ per link (Equation 1), r per link
// (Equation 15), and the comparable policies of §4.
func NewScheme(g *Graph, m *Matrix, opts SchemeOptions) (*Scheme, error) {
	return core.New(g, m, opts)
}

// NewSchemeWithTable derives a scheme over an externally built route table
// (e.g. bifurcated min-loss primaries from MinLossPrimaries).
func NewSchemeWithTable(g *Graph, m *Matrix, t *RouteTable, opts SchemeOptions) (*Scheme, error) {
	return core.NewWithTable(g, m, t, opts)
}

// BuildRouteTable computes the min-hop route table with alternates limited
// to maxAltHops (0 = unlimited loop-free).
func BuildRouteTable(g *Graph, maxAltHops int) (*RouteTable, error) {
	return policy.BuildMinHop(g, maxAltHops)
}

// MinLossPrimaries computes the §4 min-loss bifurcated SI primaries by flow
// deviation on the convex expected-loss objective.
func MinLossPrimaries(g *Graph, m *Matrix) (map[[2]NodeID][]WeightedPath, error) {
	res, err := optimize.MinLossPrimaries(g, m, optimize.Options{})
	if err != nil {
		return nil, err
	}
	return res.Primaries, nil
}

// BuildBifurcatedTable builds a route table from bifurcated primaries.
func BuildBifurcatedTable(g *Graph, primaries map[[2]NodeID][]WeightedPath, maxAltHops int, seed int64) (*RouteTable, error) {
	return policy.BuildBifurcated(g, primaries, maxAltHops, seed)
}

// Simulation.

// GenerateTrace draws the Poisson arrival sequence for the matrix over
// [0, horizon) with unit-mean exponential holding times. The same (matrix,
// seed) always produces the same trace, enabling common-random-numbers
// comparisons across policies.
func GenerateTrace(m *Matrix, horizon float64, seed int64) *Trace {
	return sim.GenerateTrace(m, horizon, seed)
}

// NewArrivalStream returns the streaming form of GenerateTrace: the same
// call sequence, bit for bit, generated lazily in O(pairs) memory. Pass it
// as RunConfig.Source for long-horizon runs where a materialized trace
// would not fit; use GenerateTrace when several policies must replay the
// identical sequence cheaply.
func NewArrivalStream(m *Matrix, horizon float64, seed int64) (*ArrivalStream, error) {
	return sim.NewStream(m, horizon, seed)
}

// Run replays a trace against a policy with instantaneous call set-up.
func Run(cfg RunConfig) (*RunResult, error) { return sim.Run(cfg) }

// RunSignaling replays a trace with the paper's explicit set-up packet
// mechanism: forward capacity checks hop by hop, booking on the way back,
// with a configurable per-hop latency (0 reproduces Run exactly).
func RunSignaling(cfg SignalingConfig) (*SignalingResult, error) {
	return sim.RunSignaling(cfg)
}

// Loss-system analytics.

// ErlangB returns the Erlang-B blocking probability B(load, capacity).
func ErlangB(load float64, capacity int) float64 { return erlang.B(load, capacity) }

// ProtectionLevel returns the smallest state-protection level r satisfying
// Equation 15 for a link with the given primary load and capacity under
// maximum alternate hop length maxHops.
func ProtectionLevel(load float64, capacity, maxHops int) int {
	return erlang.ProtectionLevel(load, capacity, maxHops)
}

// ErlangCache memoizes Erlang-B and Equation-15 evaluations by exact
// argument bits; cached results are bit-identical to uncached ones. Share
// one across the scheme derivations of a sweep to dedup repeated
// (load, capacity) work. Not safe for concurrent use.
type ErlangCache = erlang.Cache

// NewErlangCache returns an empty ErlangCache.
func NewErlangCache() *ErlangCache { return erlang.NewCache() }

// ProtectionLevels computes the Equation-15 protection level for every link
// of a network in one batch: loads and capacities are indexed by LinkID. A
// non-nil cache dedups repeated (load, capacity) pairs across calls; nil
// scopes the dedup to this batch.
func ProtectionLevels(loads []float64, capacities []int, maxHops int, cache *ErlangCache) []int {
	return erlang.ProtectionLevels(loads, capacities, maxHops, cache)
}

// LossBound returns the Theorem 1 upper bound B(load,C)/B(load,C−r) on the
// expected primary calls displaced per admitted alternate call.
func LossBound(load float64, capacity, r int) float64 {
	return erlang.LossBound(load, capacity, r)
}

// ErlangBound computes the §4 cut-set lower bound on the overall network
// blocking of any routing scheme.
func ErlangBound(g *Graph, m *Matrix) (float64, error) {
	res, err := bound.ErlangBound(g, m)
	if err != nil {
		return 0, err
	}
	return res.Blocking, nil
}

// NewControlledPolicy returns controlled alternate routing over the route
// table with explicit per-link protection levels (indexed by LinkID) —
// useful for ablations; NewScheme derives the Equation-15 levels
// automatically.
func NewControlledPolicy(t *RouteTable, r []int) Policy {
	return policy.Controlled{T: t, R: r}
}

// Dynamic failures (see internal/sim/failure.go and DESIGN.md §11).

type (
	// FailurePlan is a deterministic schedule of link failure/repair events
	// merged into the simulation clock via RunConfig.Failures.
	FailurePlan = sim.FailurePlan

	// FailureEvent is one scheduled topology change of a FailurePlan.
	FailureEvent = sim.FailureEvent

	// FailoverMode selects how in-flight calls on a failing link are handled.
	FailoverMode = sim.FailoverMode

	// OutageParams parameterizes GenerateOutages.
	OutageParams = sim.OutageParams

	// NetworkState is the instantaneous per-link occupancy and failure state
	// the simulator maintains; RunConfig.TopologyHook receives it at every
	// failure/repair epoch.
	NetworkState = sim.State

	// AdaptMode selects how a scheme responds to mid-run topology changes.
	AdaptMode = core.AdaptMode

	// AdaptiveScheme pairs a derived scheme with an adaptation mode; its
	// Policy and Hook plug into RunConfig (per run — it is stateful).
	AdaptiveScheme = core.AdaptiveScheme
)

// Failover modes for RunConfig.Failover.
const (
	// FailoverDrop tears down affected calls (counted as LostToFailure).
	FailoverDrop = sim.FailoverDrop
	// FailoverReroute gives each affected call one re-admission attempt over
	// the surviving topology, state protection included.
	FailoverReroute = sim.FailoverReroute
)

// Adaptation modes for Scheme.Adaptive.
const (
	// AdaptNone freezes the nominal scheme across failures.
	AdaptNone = core.AdaptNone
	// AdaptRederive re-derives routes and protection levels from the
	// degraded topology at every failure/repair epoch.
	AdaptRederive = core.AdaptRederive
)

// GenerateOutages draws seeded random link outages (alternating exp(MTBF)
// up / exp(MTTR) down renewal processes) over [0, horizon) as a
// FailurePlan. The plan is a pure function of (graph shape, horizon,
// params) and is disjoint from the traffic streams of the same seed.
func GenerateOutages(g *Graph, horizon float64, p OutageParams) (*FailurePlan, error) {
	return sim.GenerateOutages(g, horizon, p)
}

// ReadFailurePlanJSON decodes the altsim -failures JSON plan format
// ({"t","from","to","down"[,"duplex"]} entries; endpoints are node ids or
// names), resolving endpoints against the graph.
func ReadFailurePlanJSON(r io.Reader, g *Graph) (*FailurePlan, error) {
	return sim.ReadFailurePlanJSON(r, g)
}

// SolveFixedPoint computes the Erlang fixed-point (reduced-load)
// approximation of single-path blocking for the route table's primaries:
// the analytic counterpart of the simulated single-path curve.
func SolveFixedPoint(g *Graph, m *Matrix, t *RouteTable) (network float64, perLink []float64, err error) {
	res, err := fixedpoint.Solve(g, m, t, fixedpoint.Options{})
	if err != nil {
		return 0, nil, err
	}
	return res.NetworkBlocking, res.LinkBlocking, nil
}
