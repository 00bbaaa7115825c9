// Golden equivalence tests for the high-throughput simulation core. The
// optimized engine — streaming arrival generation (lazy per-pair Poisson
// merge), the allocation-free departure queue, and dense per-pair counters —
// promises results BIT-IDENTICAL to the original build-sort-replay
// implementation. This file keeps a verbatim copy of that original (the
// "reference"): the sort-based trace generators and the container/heap +
// map event loop exactly as the seed shipped them. Every test drives the
// optimized and reference paths over the same inputs and demands exact
// equality — every counter, every map entry, every float bit, and the full
// typed event stream.
package sim_test

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// --- Reference implementations (verbatim seed copies) -----------------------

// referenceGenerateTrace is the seed GenerateTrace: draw every pair's full
// arrival sequence, then sort with the (Arrival, Origin, Dest) tie-break.
func referenceGenerateTrace(m *traffic.Matrix, horizon float64, seed int64) *sim.Trace {
	n := m.Size()
	var calls []sim.Call
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			r := xrand.New(seed, int64(i), int64(j))
			t := 0.0
			for {
				t += xrand.Exp(r, 1/rate)
				if t >= horizon {
					break
				}
				calls = append(calls, sim.Call{
					Origin:  graph.NodeID(i),
					Dest:    graph.NodeID(j),
					Arrival: t,
					Holding: xrand.Exp(r, 1),
				})
			}
		}
	}
	sortReferenceCalls(calls)
	return &sim.Trace{Calls: calls, Horizon: horizon, Seed: seed}
}

// drawHolding replicates HoldingDist.draw for the reference generator.
func drawHolding(h sim.HoldingDist, r *rand.Rand) float64 {
	switch h {
	case sim.HoldingDeterministic:
		return 1
	case sim.HoldingHyperexp:
		p := (1 - math.Sqrt(3.0/5.0)) / 2
		if r.Float64() < p {
			return xrand.Exp(r, 1/(2*p))
		}
		return xrand.Exp(r, 1/(2*(1-p)))
	case sim.HoldingErlang2:
		return (xrand.Exp(r, 0.5) + xrand.Exp(r, 0.5))
	default:
		return xrand.Exp(r, 1)
	}
}

// referenceGenerateTraceHolding is the seed GenerateTraceHolding.
func referenceGenerateTraceHolding(m *traffic.Matrix, horizon float64, seed int64, dist sim.HoldingDist) *sim.Trace {
	n := m.Size()
	var calls []sim.Call
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			ar := xrand.New(seed, int64(i), int64(j), 1)
			hr := xrand.New(seed, int64(i), int64(j), 2)
			t := 0.0
			for {
				t += xrand.Exp(ar, 1/rate)
				if t >= horizon {
					break
				}
				calls = append(calls, sim.Call{
					Origin:  graph.NodeID(i),
					Dest:    graph.NodeID(j),
					Arrival: t,
					Holding: drawHolding(dist, hr),
				})
			}
		}
	}
	sortReferenceCalls(calls)
	return &sim.Trace{Calls: calls, Horizon: horizon, Seed: seed}
}

func sortReferenceCalls(calls []sim.Call) {
	sort.Slice(calls, func(a, b int) bool {
		if calls[a].Arrival != calls[b].Arrival {
			return calls[a].Arrival < calls[b].Arrival
		}
		if calls[a].Origin != calls[b].Origin {
			return calls[a].Origin < calls[b].Origin
		}
		return calls[a].Dest < calls[b].Dest
	})
	for i := range calls {
		calls[i].ID = i
	}
}

// refDeparture/refHeap are the seed's container/heap departure queue, boxing
// and all.
type refDeparture struct {
	at   float64
	path paths.Path
}

type refHeap []refDeparture

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refDeparture)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// referenceRun is the seed sim.Run, restated over the exported State API: it
// iterates a materialized trace, schedules departures through container/heap,
// counts pairs in maps, and integrates occupancy over every link.
func referenceRun(cfg sim.Config) (*sim.Result, error) {
	if cfg.Graph == nil || cfg.Policy == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = cfg.Trace.Horizon
	}
	if cfg.Warmup < 0 || cfg.Warmup >= horizon {
		return nil, fmt.Errorf("sim: warmup %v outside [0, %v)", cfg.Warmup, horizon)
	}

	st := sim.NewState(cfg.Graph)
	res := &sim.Result{
		Policy:         cfg.Policy.Name(),
		PerPairOffered: make(map[[2]graph.NodeID]int64),
		PerPairBlocked: make(map[[2]graph.NodeID]int64),
		LostAtLink:     make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil:   make([]float64, cfg.Graph.NumLinks()),
	}

	sink := cfg.Sink
	occupancyEvents := sink != nil && cfg.OccupancyEvents
	sampleOccupancy := func(at float64, p paths.Path) {
		for _, id := range p.Links {
			sink.Event(obs.Event{
				Kind: obs.KindLinkOccupancy, Time: at,
				Link: int(id), Occupancy: st.Occupancy(id),
			})
		}
	}

	var windows []sim.WindowStats
	closedWindows := 0
	closeWindows := func(upTo int) {
		for ; closedWindows < upTo; closedWindows++ {
			w := windows[closedWindows]
			sink.Event(obs.Event{
				Kind: obs.KindWindowClosed, Time: w.End, Window: closedWindows,
				Offered: w.Offered, Blocked: w.Blocked,
			})
		}
	}
	windowOf := func(t float64) *sim.WindowStats {
		if cfg.WindowLength <= 0 || t < cfg.Warmup {
			return nil
		}
		k := int((t - cfg.Warmup) / cfg.WindowLength)
		for len(windows) <= k {
			start := cfg.Warmup + float64(len(windows))*cfg.WindowLength
			windows = append(windows, sim.WindowStats{Start: start, End: start + cfg.WindowLength})
		}
		if sink != nil {
			closeWindows(k)
		}
		return &windows[k]
	}

	deps := &refHeap{}
	heap.Init(deps)
	// Per-link lazy occupancy integral: each link's utilization sum is
	// flushed only at that link's own occupancy changes (and once at the
	// horizon), mirroring the engine's flushLink/flushPath.
	last := make([]float64, cfg.Graph.NumLinks())
	flushLink := func(id graph.LinkID, now float64) {
		lo := last[id]
		if lo < cfg.Warmup {
			lo = cfg.Warmup
		}
		hi := now
		if hi > horizon {
			hi = horizon
		}
		if hi > lo {
			if o := st.Occupancy(id); o != 0 {
				res.LinkTimeUtil[id] += (hi - lo) * float64(o)
			}
		}
		last[id] = now
	}
	flushPath := func(p paths.Path, now float64) {
		for _, id := range p.Links {
			flushLink(id, now)
		}
	}

	if sink != nil {
		sink.Event(obs.Event{Kind: obs.KindRunStart, Policy: res.Policy, Seed: cfg.Trace.Seed})
	}
	drained := 0
	for _, c := range cfg.Trace.Calls {
		if c.Arrival >= horizon {
			break
		}
		for deps.Len() > 0 && (*deps)[0].at <= c.Arrival {
			d := heap.Pop(deps).(refDeparture)
			flushPath(d.path, d.at)
			st.Release(d.path)
			if sink != nil {
				sink.Event(obs.Event{
					Kind: obs.KindCallDeparted, Time: d.at,
					Hops: d.path.Hops(), Measured: d.at >= cfg.Warmup,
				})
				if occupancyEvents {
					sampleOccupancy(d.at, d.path)
				}
				drained++
			}
		}

		measured := c.Arrival >= cfg.Warmup
		pairKey := [2]graph.NodeID{c.Origin, c.Dest}
		win := windowOf(c.Arrival)
		if measured {
			res.Offered++
			res.PerPairOffered[pairKey]++
			if win != nil {
				win.Offered++
			}
		}
		if sink != nil {
			sink.Event(obs.Event{
				Kind: obs.KindCallOffered, Time: c.Arrival, Call: c.ID,
				Origin: int(c.Origin), Dest: int(c.Dest),
				Measured: measured, Drained: drained,
			})
			drained = 0
		}
		p, alternate, ok := cfg.Policy.Route(st, c)
		if ok {
			flushPath(p, c.Arrival)
			st.Occupy(p)
			heap.Push(deps, refDeparture{at: c.Arrival + c.Holding, path: p})
			if measured {
				res.Accepted++
				res.CarriedHopCount += int64(p.Hops())
				if alternate {
					res.AlternateAccepted++
				} else {
					res.PrimaryAccepted++
				}
			}
			if sink != nil {
				sink.Event(obs.Event{
					Kind: obs.KindCallAdmitted, Time: c.Arrival, Call: c.ID,
					Origin: int(c.Origin), Dest: int(c.Dest),
					Hops: p.Hops(), Alternate: alternate, Measured: measured,
				})
				if occupancyEvents {
					sampleOccupancy(c.Arrival, p)
				}
			}
			continue
		}
		blockAt := graph.InvalidLink
		if measured {
			res.Blocked++
			res.PerPairBlocked[pairKey]++
			if win != nil {
				win.Blocked++
			}
			primary := cfg.Policy.PrimaryPath(st, c)
			if admitted, blockLink := st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
				res.LostAtLink[blockLink]++
				blockAt = blockLink
			}
		}
		if sink != nil {
			sink.Event(obs.Event{
				Kind: obs.KindCallBlocked, Time: c.Arrival, Call: c.ID,
				Origin: int(c.Origin), Dest: int(c.Dest),
				Link: int(blockAt), Measured: measured,
			})
		}
	}
	for deps.Len() > 0 && (*deps)[0].at <= horizon {
		d := heap.Pop(deps).(refDeparture)
		flushPath(d.path, d.at)
		st.Release(d.path)
		if sink != nil {
			sink.Event(obs.Event{
				Kind: obs.KindCallDeparted, Time: d.at,
				Hops: d.path.Hops(), Measured: d.at >= cfg.Warmup,
			})
			if occupancyEvents {
				sampleOccupancy(d.at, d.path)
			}
		}
	}
	for id := range res.LinkTimeUtil {
		flushLink(graph.LinkID(id), horizon)
	}
	window := horizon - cfg.Warmup
	for id := range res.LinkTimeUtil {
		res.LinkTimeUtil[id] /= window
	}
	res.Windows = windows
	res.Span = window
	if sink != nil {
		closeWindows(len(windows))
		sink.Event(obs.Event{
			Kind: obs.KindRunEnd, Time: horizon,
			Offered: res.Offered, Blocked: res.Blocked,
		})
	}
	return res, nil
}

// --- Exact comparison helpers ----------------------------------------------

// recordSink appends every event to a slice.
type recordSink struct {
	events []obs.Event
}

func (s *recordSink) Event(e obs.Event) { s.events = append(s.events, e) }

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult fails unless every field of the two Results — counters,
// map entries, float bits, windows — is identical.
func requireSameResult(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Policy != want.Policy {
		t.Fatalf("%s: Policy %q != %q", label, got.Policy, want.Policy)
	}
	if got.Offered != want.Offered || got.Accepted != want.Accepted || got.Blocked != want.Blocked {
		t.Fatalf("%s: counters (%d,%d,%d) != (%d,%d,%d)", label,
			got.Offered, got.Accepted, got.Blocked, want.Offered, want.Accepted, want.Blocked)
	}
	if got.PrimaryAccepted != want.PrimaryAccepted || got.AlternateAccepted != want.AlternateAccepted {
		t.Fatalf("%s: accepted split (%d,%d) != (%d,%d)", label,
			got.PrimaryAccepted, got.AlternateAccepted, want.PrimaryAccepted, want.AlternateAccepted)
	}
	if got.CarriedHopCount != want.CarriedHopCount {
		t.Fatalf("%s: CarriedHopCount %d != %d", label, got.CarriedHopCount, want.CarriedHopCount)
	}
	if got.LostToFailure != want.LostToFailure || got.FailureRerouted != want.FailureRerouted {
		t.Fatalf("%s: failure counters (%d,%d) != (%d,%d)", label,
			got.LostToFailure, got.FailureRerouted, want.LostToFailure, want.FailureRerouted)
	}
	if !sameFloat(got.Span, want.Span) {
		t.Fatalf("%s: Span %v != %v", label, got.Span, want.Span)
	}
	if len(got.PerPairOffered) != len(want.PerPairOffered) {
		t.Fatalf("%s: PerPairOffered size %d != %d", label, len(got.PerPairOffered), len(want.PerPairOffered))
	}
	for k, v := range want.PerPairOffered {
		if gv, ok := got.PerPairOffered[k]; !ok || gv != v {
			t.Fatalf("%s: PerPairOffered[%v] = %d, want %d (present %v)", label, k, gv, v, ok)
		}
	}
	if len(got.PerPairBlocked) != len(want.PerPairBlocked) {
		t.Fatalf("%s: PerPairBlocked size %d != %d", label, len(got.PerPairBlocked), len(want.PerPairBlocked))
	}
	for k, v := range want.PerPairBlocked {
		if gv, ok := got.PerPairBlocked[k]; !ok || gv != v {
			t.Fatalf("%s: PerPairBlocked[%v] = %d, want %d (present %v)", label, k, gv, v, ok)
		}
	}
	if len(got.LostAtLink) != len(want.LostAtLink) {
		t.Fatalf("%s: LostAtLink len %d != %d", label, len(got.LostAtLink), len(want.LostAtLink))
	}
	for i := range want.LostAtLink {
		if got.LostAtLink[i] != want.LostAtLink[i] {
			t.Fatalf("%s: LostAtLink[%d] = %d, want %d", label, i, got.LostAtLink[i], want.LostAtLink[i])
		}
	}
	if len(got.LinkTimeUtil) != len(want.LinkTimeUtil) {
		t.Fatalf("%s: LinkTimeUtil len %d != %d", label, len(got.LinkTimeUtil), len(want.LinkTimeUtil))
	}
	for i := range want.LinkTimeUtil {
		if !sameFloat(got.LinkTimeUtil[i], want.LinkTimeUtil[i]) {
			t.Fatalf("%s: LinkTimeUtil[%d] = %v (bits %x), want %v (bits %x)", label, i,
				got.LinkTimeUtil[i], math.Float64bits(got.LinkTimeUtil[i]),
				want.LinkTimeUtil[i], math.Float64bits(want.LinkTimeUtil[i]))
		}
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("%s: Windows len %d != %d", label, len(got.Windows), len(want.Windows))
	}
	for i := range want.Windows {
		g, w := got.Windows[i], want.Windows[i]
		if !sameFloat(g.Start, w.Start) || !sameFloat(g.End, w.End) || g.Offered != w.Offered || g.Blocked != w.Blocked {
			t.Fatalf("%s: Windows[%d] = %+v, want %+v", label, i, g, w)
		}
	}
}

// requireSameEvents fails unless the two event streams are identical,
// element by element (obs.Event is comparable; Time compares by exact value,
// which for identical computations means identical bits).
func requireSameEvents(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || !sameFloat(got[i].Time, want[i].Time) {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func requireSameTrace(t *testing.T, label string, got, want *sim.Trace) {
	t.Helper()
	if len(got.Calls) != len(want.Calls) {
		t.Fatalf("%s: %d calls, want %d", label, len(got.Calls), len(want.Calls))
	}
	if !sameFloat(got.Horizon, want.Horizon) || got.Seed != want.Seed {
		t.Fatalf("%s: header (%v,%d) != (%v,%d)", label, got.Horizon, got.Seed, want.Horizon, want.Seed)
	}
	for i := range want.Calls {
		g, w := got.Calls[i], want.Calls[i]
		if g.ID != w.ID || g.Origin != w.Origin || g.Dest != w.Dest ||
			!sameFloat(g.Arrival, w.Arrival) || !sameFloat(g.Holding, w.Holding) {
			t.Fatalf("%s: call %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// --- Golden scenarios -------------------------------------------------------

type goldenScenario struct {
	name    string
	g       *graph.Graph
	m       *traffic.Matrix
	h       int
	horizon float64
	warmup  float64
}

func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	nm, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatalf("NSFNet nominal matrix: %v", err)
	}
	return []goldenScenario{
		{name: "quadrangle-90E", g: netmodel.Quadrangle(), m: traffic.Uniform(4, 90), h: 0, horizon: 6, warmup: 1},
		{name: "ring6", g: netmodel.Ring(6, 30), m: traffic.Uniform(6, 12), h: 0, horizon: 10, warmup: 2},
		{name: "nsfnet-nominal", g: netmodel.NSFNet(), m: nm, h: 11, horizon: 10, warmup: 2},
	}
}

// goldenPolicies derives all four routing policies for a scenario.
func goldenPolicies(t *testing.T, sc goldenScenario) map[string]sim.Policy {
	t.Helper()
	scheme, err := core.New(sc.g, sc.m, core.Options{H: sc.h})
	if err != nil {
		t.Fatalf("%s: scheme: %v", sc.name, err)
	}
	ok, err := scheme.OttKrishnan()
	if err != nil {
		t.Fatalf("%s: ott-krishnan: %v", sc.name, err)
	}
	return map[string]sim.Policy{
		"single-path":  scheme.SinglePath(),
		"uncontrolled": scheme.Uncontrolled(),
		"controlled":   scheme.Controlled(),
		"ottkrishnan":  ok,
	}
}

var goldenSeeds = []int64{1, 2, 3, 4, 5}

// --- Tests ------------------------------------------------------------------

// TestGoldenTraceGeneration proves the streaming generators reproduce the
// sort-based originals byte for byte: same calls, same order, same IDs, same
// float bits — for plain exp(1) traces and for every holding family.
func TestGoldenTraceGeneration(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		for _, seed := range goldenSeeds {
			got := sim.GenerateTrace(sc.m, sc.horizon, seed)
			want := referenceGenerateTrace(sc.m, sc.horizon, seed)
			requireSameTrace(t, fmt.Sprintf("%s/seed=%d", sc.name, seed), got, want)
		}
	}
	// Holding-time families on the quadrangle (the generators share the
	// arrival machinery, so one topology exercises the dist plumbing).
	sc := goldenScenarios(t)[0]
	for _, dist := range []sim.HoldingDist{
		sim.HoldingExponential, sim.HoldingDeterministic, sim.HoldingHyperexp, sim.HoldingErlang2,
	} {
		for _, seed := range goldenSeeds {
			got, err := sim.GenerateTraceHolding(sc.m, sc.horizon, seed, dist)
			if err != nil {
				t.Fatalf("%s/%v: %v", sc.name, dist, err)
			}
			want := referenceGenerateTraceHolding(sc.m, sc.horizon, seed, dist)
			requireSameTrace(t, fmt.Sprintf("%s/%v/seed=%d", sc.name, dist, seed), got, want)
		}
	}
}

// TestGoldenStreamMatchesTrace proves draining a Stream call by call yields
// exactly the materialized trace (same order, IDs assigned in emission
// order), so Run over a Source and Run over a Trace see identical inputs.
func TestGoldenStreamMatchesTrace(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		for _, seed := range goldenSeeds {
			want := sim.GenerateTrace(sc.m, sc.horizon, seed)
			s, err := sim.NewStream(sc.m, sc.horizon, seed)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			var calls []sim.Call
			for {
				c, more := s.Next()
				if !more {
					break
				}
				calls = append(calls, c)
			}
			got := &sim.Trace{Calls: calls, Horizon: s.Horizon(), Seed: s.Seed()}
			requireSameTrace(t, fmt.Sprintf("%s/seed=%d", sc.name, seed), got, want)
		}
	}
}

// TestGoldenRunEquivalence is the core guarantee: the optimized Run —
// whether replaying a materialized Trace or consuming a Stream — produces a
// Result bit-identical to the reference implementation and emits the exact
// same event stream, across three topologies, all four routing policies,
// and five seeds. One seed per scenario also runs with windowed collection
// to cover the Windows series.
func TestGoldenRunEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		policies := goldenPolicies(t, sc)
		for pname, pol := range policies {
			for si, seed := range goldenSeeds {
				label := fmt.Sprintf("%s/%s/seed=%d", sc.name, pname, seed)
				trace := sim.GenerateTrace(sc.m, sc.horizon, seed)
				windowLen := 0.0
				if si == 0 {
					windowLen = 1.0
				}

				refSink := &recordSink{}
				want, err := referenceRun(sim.Config{
					Graph: sc.g, Policy: pol, Trace: trace,
					Warmup: sc.warmup, WindowLength: windowLen, Sink: refSink,
				})
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}

				gotSink := &recordSink{}
				got, err := sim.Run(sim.Config{
					Graph: sc.g, Policy: pol, Trace: trace,
					Warmup: sc.warmup, WindowLength: windowLen, Sink: gotSink,
				})
				if err != nil {
					t.Fatalf("%s: optimized/trace: %v", label, err)
				}
				requireSameResult(t, label+"/trace", got, want)
				requireSameEvents(t, label+"/trace", gotSink.events, refSink.events)

				src, err := sim.NewStream(sc.m, sc.horizon, seed)
				if err != nil {
					t.Fatalf("%s: stream: %v", label, err)
				}
				streamSink := &recordSink{}
				gotStream, err := sim.Run(sim.Config{
					Graph: sc.g, Policy: pol, Source: src,
					Warmup: sc.warmup, WindowLength: windowLen, Sink: streamSink,
				})
				if err != nil {
					t.Fatalf("%s: optimized/stream: %v", label, err)
				}
				requireSameResult(t, label+"/stream", gotStream, want)
				requireSameEvents(t, label+"/stream", streamSink.events, refSink.events)
			}
		}
	}
}

// TestGoldenOccupancyEvents covers the occupancy-sample stream (emitted
// per-link on every admission, departure, and release) on one scenario.
func TestGoldenOccupancyEvents(t *testing.T) {
	sc := goldenScenarios(t)[0]
	pol := goldenPolicies(t, sc)["controlled"]
	for _, seed := range goldenSeeds[:2] {
		trace := sim.GenerateTrace(sc.m, sc.horizon, seed)
		refSink := &recordSink{}
		want, err := referenceRun(sim.Config{
			Graph: sc.g, Policy: pol, Trace: trace,
			Warmup: sc.warmup, Sink: refSink, OccupancyEvents: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		gotSink := &recordSink{}
		got, err := sim.Run(sim.Config{
			Graph: sc.g, Policy: pol, Trace: trace,
			Warmup: sc.warmup, Sink: gotSink, OccupancyEvents: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s/occupancy/seed=%d", sc.name, seed)
		requireSameResult(t, label, got, want)
		requireSameEvents(t, label, gotSink.events, refSink.events)
	}
}

// TestGoldenAggregateFoldback folds the optimized engine's event stream back
// through obs.Aggregate and checks the totals reproduce the Result's
// counters exactly — the stream remains a faithful dual of the bookkeeping.
func TestGoldenAggregateFoldback(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		pol := goldenPolicies(t, sc)["uncontrolled"]
		for _, seed := range goldenSeeds {
			src, err := sim.NewStream(sc.m, sc.horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			sink := &recordSink{}
			res, err := sim.Run(sim.Config{
				Graph: sc.g, Policy: pol, Source: src,
				Warmup: sc.warmup, WindowLength: 1.0, Sink: sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			runs := obs.Aggregate(sink.events)
			if len(runs) != 1 {
				t.Fatalf("%s: %d aggregated runs, want 1", sc.name, len(runs))
			}
			a := runs[0]
			label := fmt.Sprintf("%s/seed=%d", sc.name, seed)
			if a.Policy != res.Policy || a.Seed != seed {
				t.Fatalf("%s: aggregate identity (%q,%d), want (%q,%d)", label, a.Policy, a.Seed, res.Policy, seed)
			}
			if a.Offered != res.Offered || a.Accepted != res.Accepted || a.Blocked != res.Blocked ||
				a.PrimaryAccepted != res.PrimaryAccepted || a.AlternateAccepted != res.AlternateAccepted ||
				a.CarriedHopCount != res.CarriedHopCount {
				t.Fatalf("%s: aggregate %+v disagrees with result counters", label, a)
			}
			if a.Windows != len(res.Windows) {
				t.Fatalf("%s: aggregate windows %d != %d", label, a.Windows, len(res.Windows))
			}
		}
	}
}

// TestGoldenDepartureEpochTies counts the calls whose departure epoch
// Arrival+Holding — computed exactly as Run schedules it — equals another
// call's, over the 15 golden traces and the two simulator inputs of the
// end-to-end benchmark (NSFNet nominal to horizon 1010 and the 200-node
// metro stream to horizon 100, both seed 1). Equal-epoch departures pop in
// push order (DESIGN.md §8), while the verbatim seed engine pops them in
// container/heap's array order; a zero count is what makes the two
// engines' pop orders — and so the golden suites — agree by construction.
// Every call counts, admitted or not, so the count is a policy-independent
// upper bound on the admitted departures that tie.
func TestGoldenDepartureEpochTies(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		for _, seed := range goldenSeeds {
			if tied, n := departureEpochTies(t, sc.m, sc.horizon, seed); tied != 0 {
				t.Errorf("%s/seed=%d: %d of %d calls share a departure epoch", sc.name, seed, tied, n)
			}
		}
	}
	nm, _, err := traffic.NSFNetNominal()
	if err != nil {
		t.Fatalf("NSFNet nominal matrix: %v", err)
	}
	for _, in := range []struct {
		name    string
		m       *traffic.Matrix
		horizon float64
		calls   int
	}{
		{"nsfnet-nominal/horizon=1010", nm, 1010, 782186},
		{"metro-200/horizon=100", traffic.MetroLocality(50, 4, 24, 0.006), 100, 1464883},
	} {
		tied, n := departureEpochTies(t, in.m, in.horizon, 1)
		if n != in.calls {
			t.Errorf("%s/seed=1: %d calls, want %d (not the benchmark's input)", in.name, n, in.calls)
		}
		if tied != 0 {
			t.Errorf("%s/seed=1: %d of %d calls share a departure epoch", in.name, tied, n)
		}
	}
}

// departureEpochTies streams the arrivals of (m, horizon, seed) — the calls
// GenerateTrace would materialize — and returns how many share their
// departure epoch with another call, and the call count.
func departureEpochTies(t *testing.T, m *traffic.Matrix, horizon float64, seed int64) (tied, n int) {
	t.Helper()
	src, err := sim.NewStream(m, horizon, seed)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var epochs []float64
	for c, ok := src.Next(); ok; c, ok = src.Next() {
		epochs = append(epochs, c.Arrival+c.Holding)
	}
	sort.Float64s(epochs)
	for i, e := range epochs {
		if (i > 0 && epochs[i-1] == e) || (i+1 < len(epochs) && epochs[i+1] == e) {
			tied++
		}
	}
	return tied, len(epochs)
}

// --- Parallel-equivalence suite ---------------------------------------------

// requireSameSweep fails unless the two sweeps agree exactly: same series
// names in the same order, and bit-identical X, Y, and Err on every point.
func requireSameSweep(t *testing.T, label string, got, want *experiments.Sweep) {
	t.Helper()
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		gs, ws := got.Series[i], want.Series[i]
		if gs.Name != ws.Name {
			t.Fatalf("%s: series[%d] %q != %q", label, i, gs.Name, ws.Name)
		}
		if len(gs.Points) != len(ws.Points) {
			t.Fatalf("%s: %s: %d points, want %d", label, ws.Name, len(gs.Points), len(ws.Points))
		}
		for j := range ws.Points {
			gp, wp := gs.Points[j], ws.Points[j]
			if !sameFloat(gp.X, wp.X) || !sameFloat(gp.Y, wp.Y) || !sameFloat(gp.Err, wp.Err) {
				t.Fatalf("%s: %s[%d] = (%x,%x,%x), want (%x,%x,%x)", label, ws.Name, j,
					math.Float64bits(gp.X), math.Float64bits(gp.Y), math.Float64bits(gp.Err),
					math.Float64bits(wp.X), math.Float64bits(wp.Y), math.Float64bits(wp.Err))
			}
		}
	}
}

// jsonlBytes serializes an event stream the way `altsim -events` does.
func jsonlBytes(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("jsonl flush: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenParallelSweepEquivalence is the determinism contract of the
// parallel experiment engine: a sweep run with any Parallelism setting, at
// any GOMAXPROCS, with or without a sink attached, is bit-identical to the
// fully sequential run — every series point, every stats float, and (when a
// sink is attached) the complete flushed event stream, down to the JSONL
// bytes the CLI would write.
func TestGoldenParallelSweepEquivalence(t *testing.T) {
	p := experiments.SimParams{Seeds: 2, Warmup: 1, Horizon: 6}
	quadLoads := []float64{85, 95}
	nsfLoads := []float64{8, 12}

	// Sequential baselines, computed once at the ambient GOMAXPROCS
	// (Parallelism=1 never spawns workers, so GOMAXPROCS is irrelevant).
	seqP := p
	seqP.Parallelism = 1
	seqSink := &recordSink{}
	seqP.Sink = seqSink
	quadWant, err := experiments.Quadrangle(quadLoads, 0, seqP)
	if err != nil {
		t.Fatalf("sequential quadrangle: %v", err)
	}
	seqNoSink := p
	seqNoSink.Parallelism = 1
	nsfWant, err := experiments.NSFNetSweep(nsfLoads, 11, false, seqNoSink)
	if err != nil {
		t.Fatalf("sequential nsfnet: %v", err)
	}
	wantJSONL := jsonlBytes(t, seqSink.events)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, par := range []int{0, 8} {
			label := fmt.Sprintf("gomaxprocs=%d/parallel=%d", gmp, par)

			// Instrumented quadrangle sweep: the sink must no longer force
			// sequential execution, and the stream must match byte for byte.
			pp := p
			pp.Parallelism = par
			sink := &recordSink{}
			pp.Sink = sink
			quadGot, err := experiments.Quadrangle(quadLoads, 0, pp)
			if err != nil {
				t.Fatalf("%s: quadrangle: %v", label, err)
			}
			requireSameSweep(t, label+"/quad", quadGot, quadWant)
			requireSameEvents(t, label+"/quad-events", sink.events, seqSink.events)
			if got := jsonlBytes(t, sink.events); !bytes.Equal(got, wantJSONL) {
				t.Fatalf("%s: JSONL bytes diverge from sequential stream", label)
			}

			// Uninstrumented NSFNet sweep (scheme derivation + seeds +
			// Erlang bound per point fan out across load points).
			np := p
			np.Parallelism = par
			nsfGot, err := experiments.NSFNetSweep(nsfLoads, 11, false, np)
			if err != nil {
				t.Fatalf("%s: nsfnet: %v", label, err)
			}
			requireSameSweep(t, label+"/nsfnet", nsfGot, nsfWant)
		}
	}
}
