package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/routetable"
)

// Policy decides how to route one call given the current network state.
// Implementations live in internal/policy (single-path, uncontrolled and
// controlled alternate routing, Ott–Krishnan shadow-price routing).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Route returns the path chosen for the call, whether that path is an
	// alternate (not the call's primary), and whether the call is admitted
	// at all. When admitted, every link of the returned path must currently
	// admit the call under the policy's own rules.
	Route(s *State, c Call) (p paths.Path, alternate bool, ok bool)
	// PrimaryPath returns the primary path the policy would assign the call
	// (used for loss attribution even when the call is blocked).
	PrimaryPath(s *State, c Call) paths.Path
}

// Config parameterizes one simulation run.
type Config struct {
	Graph  *graph.Graph
	Policy Policy
	// Trace supplies the arrival sequence as a materialized slice; Source
	// supplies it as a stream (O(pairs) memory — see NewStream). Exactly one
	// of the two must be set; when both are set the trace wins. The two
	// paths are bit-identical for the same (matrix, horizon, seed).
	Trace  *Trace
	Source ArrivalSource
	// Warmup discards statistics for calls arriving before this epoch
	// (paper: 10 time units from an idle network).
	Warmup float64
	// Horizon stops statistics collection at this epoch; calls arriving
	// later are not offered. Zero means the trace horizon.
	Horizon float64
	// WindowLength, when positive, additionally collects per-window
	// offered/blocked counts over the measurement interval — the time series
	// the nonstationary studies plot. Windows are [Warmup + k·W, Warmup +
	// (k+1)·W).
	WindowLength float64
	// Sink, when non-nil, receives the run's typed event stream (see
	// internal/obs): run markers, every offer/admission/blocking/departure,
	// window closures, and (with OccupancyEvents) per-link occupancy
	// samples. A nil Sink disables instrumentation entirely; each emission
	// site costs one never-taken branch.
	Sink obs.Sink
	// OccupancyEvents additionally emits a LinkOccupancy sample for every
	// link whose occupancy changes — the occupancy-trajectory stream, at
	// roughly 2·hops extra events per carried call. Ignored when Sink is
	// nil.
	OccupancyEvents bool
	// Failures schedules link failure and repair events inside the run (see
	// FailurePlan). Nil or empty reproduces the static engine exactly:
	// byte-identical event stream, bit-identical Result. The plan mutates
	// only the run's own State (never the shared Graph), so concurrent runs
	// over one topology stay independent.
	Failures *FailurePlan
	// Failover selects what happens to in-flight calls traversing a link at
	// its failure epoch: FailoverDrop (default) tears them down and counts
	// LostToFailure; FailoverReroute grants each one re-admission attempt
	// over the surviving topology first.
	Failover FailoverMode
	// TopologyHook, when non-nil, runs after every failure/repair epoch's
	// state changes and before affected calls are torn down or rerouted —
	// the attachment point for online scheme adaptation (see
	// core.AdaptiveScheme): the hook may re-derive the policy's routes and
	// protection levels from the degraded topology. It must be
	// deterministic; it is never called on a run without plan events.
	TopologyHook func(at float64, s *State)
}

// WindowStats is one time window's counts.
type WindowStats struct {
	Start, End       float64
	Offered, Blocked int64
}

// Result aggregates one run's statistics over the measurement window
// [Warmup, Horizon).
type Result struct {
	Policy string
	// Offered, Accepted and Blocked count calls arriving in the window.
	Offered, Accepted, Blocked int64
	// PrimaryAccepted and AlternateAccepted partition Accepted by route type.
	PrimaryAccepted, AlternateAccepted int64
	// PerPair maps O-D pairs to their offered/blocked counts.
	PerPairOffered, PerPairBlocked map[[2]graph.NodeID]int64
	// LostAtLink counts, per link, calls attributed as lost at that link
	// (first blocking link of the primary path, per the paper's convention).
	LostAtLink []int64
	// LinkTimeUtil is the time-average occupancy of each link over the
	// window, in calls.
	LinkTimeUtil []float64
	// CarriedHopCount sums hops over accepted calls (resource usage).
	CarriedHopCount int64
	// LostToFailure counts calls torn down mid-flight by a link failure
	// (Config.Failures) without a successful re-admission, for failure
	// epochs inside the measurement window. Lost calls remain counted in
	// Accepted — they were admitted — so carried traffic over the window is
	// Accepted − LostToFailure.
	LostToFailure int64
	// FailureRerouted counts calls re-admitted onto a surviving path by
	// FailoverReroute, for failure epochs inside the measurement window.
	FailureRerouted int64
	// Windows holds the per-window time series when Config.WindowLength was
	// set.
	Windows []WindowStats
	// Span is the measurement window length (horizon − warmup) the counters
	// cover, in holding times.
	Span float64
}

// Throughput returns the carried-call rate — accepted calls per unit time
// over the measurement window — the common figure benchmarks and the
// altsim -metrics snapshot report. It returns NaN for a Result without a
// recorded span (hand-built fixtures).
func (r *Result) Throughput() float64 {
	if r.Span <= 0 {
		return math.NaN()
	}
	return float64(r.Accepted) / r.Span
}

// Blocking returns the network-average blocking probability, or NaN when no
// call was offered in the measurement window: a zero-offered run carries no
// information, which is not the same as perfect service.
func (r *Result) Blocking() float64 {
	if r.Offered == 0 {
		return math.NaN()
	}
	return float64(r.Blocked) / float64(r.Offered)
}

// PairBlocking returns the blocking probability of one O-D pair, or NaN
// when the pair was never offered a call. Use PairBlockingOK to distinguish
// the two cases explicitly.
func (r *Result) PairBlocking(i, j graph.NodeID) float64 {
	b, ok := r.PairBlockingOK(i, j)
	if !ok {
		return math.NaN()
	}
	return b
}

// PairBlockingOK returns the blocking probability of one O-D pair and
// whether the pair was offered any call in the measurement window.
func (r *Result) PairBlockingOK(i, j graph.NodeID) (float64, bool) {
	off := r.PerPairOffered[[2]graph.NodeID{i, j}]
	if off == 0 {
		return 0, false
	}
	return float64(r.PerPairBlocked[[2]graph.NodeID{i, j}]) / float64(off), true
}

// loop is one run's event-loop state; its one arrival loop is run.
type loop struct {
	cfg     Config
	st      *State
	res     *Result
	deps    departureQueue
	plan    []FailureEvent
	pi      int
	horizon float64

	numNodes                 int
	pairOffered, pairBlocked []int64

	sink                          obs.Sink
	instrumented, occupancyEvents bool
	drained                       int

	windows       []WindowStats
	closedWindows int

	// read is how many of a Trace's calls nextBatch has handed out; one
	// holds the call pulled from a source that is neither a Trace nor a
	// Stream.
	read int
	one  [1]Call

	// util/last/occ implement the per-link lazy occupancy integral: each
	// link's utilization sum is flushed only when that link's occupancy
	// changes (plus once at the horizon), never at unrelated events. The
	// split points of a link's floating-point sum therefore depend only on
	// the link's own admission/departure epochs — an order invariant shared
	// by the interpreted and compiled engines — and the per-event
	// cost is O(hops) instead of O(links).
	util []float64
	last []float64
	occ  []int

	// ev is the run's one reusable event, reset and filled in place for
	// every emission and allocated only when a sink is attached: as a
	// field of loop its address, handed to the sink, would move every
	// run's loop to the heap.
	ev *obs.Event
}

// sampleOccupancy reports each changed link's new occupancy.
func (l *loop) sampleOccupancy(at float64, p paths.Path) {
	for _, id := range p.Links {
		ev := l.ev.Reset(obs.KindLinkOccupancy, at)
		ev.Link, ev.Occupancy = int(id), l.st.Occupancy(id)
		obs.Emit(l.sink, ev)
	}
}

// closeWindows emits WindowClosed for every fully elapsed window; the
// per-window counts are final once an arrival lands in a later window
// (arrivals are the only events that update window counts).
func (l *loop) closeWindows(upTo int) {
	for ; l.closedWindows < upTo; l.closedWindows++ {
		w := &l.windows[l.closedWindows]
		ev := l.ev.Reset(obs.KindWindowClosed, w.End)
		ev.Window, ev.Offered, ev.Blocked = l.closedWindows, w.Offered, w.Blocked
		obs.Emit(l.sink, ev)
	}
}

func (l *loop) windowOf(t float64) *WindowStats {
	if l.cfg.WindowLength <= 0 || t < l.cfg.Warmup {
		return nil
	}
	k := int((t - l.cfg.Warmup) / l.cfg.WindowLength)
	for len(l.windows) <= k {
		start := l.cfg.Warmup + float64(len(l.windows))*l.cfg.WindowLength
		l.windows = append(l.windows, WindowStats{Start: start, End: start + l.cfg.WindowLength})
	}
	if l.instrumented {
		l.closeWindows(k)
	}
	return &l.windows[k]
}

// flushLink integrates one link's occupancy over [last[id], now) clipped to
// the measurement window and advances the link's clock. It runs immediately
// before every occupancy change of the link and once at the horizon.
// Skipping idle links is exact: adding dt·0 = +0 is the floating-point
// identity on these non-negative sums.
//
//altlint:hotpath
func (l *loop) flushLink(id graph.LinkID, now float64) {
	lo := l.last[id]
	if lo < l.cfg.Warmup {
		lo = l.cfg.Warmup
	}
	hi := now
	if hi > l.horizon {
		hi = l.horizon
	}
	if hi > lo {
		if o := l.occ[id]; o != 0 {
			l.util[id] += (hi - lo) * float64(o)
		}
	}
	l.last[id] = now
}

// flushPath flushes every link of a path at the given epoch — the
// prelude to booking or releasing the path.
//
//altlint:hotpath
func (l *loop) flushPath(p paths.Path, now float64) {
	for _, id := range p.Links {
		l.flushLink(id, now)
	}
}

// applyPlanGroup consumes every plan event sharing the front event's
// epoch as one atomic topology change, then tears down or reroutes the
// affected in-flight calls (DESIGN.md §11). The caller guarantees
// pi < len(plan).
func (l *loop) applyPlanGroup() {
	st, sink := l.st, l.sink
	at := l.plan[l.pi].Epoch
	var downed []graph.LinkID
	for l.pi < len(l.plan) && math.Float64bits(l.plan[l.pi].Epoch) == math.Float64bits(at) {
		ev := l.plan[l.pi]
		l.pi++
		if st.LinkDown(ev.Link) == ev.Down {
			continue // no-op: the link is already in the requested state
		}
		st.SetLinkDown(ev.Link, ev.Down)
		if l.instrumented {
			kind := obs.KindLinkUp
			if ev.Down {
				kind = obs.KindLinkDown
			}
			e := l.ev.Reset(kind, at)
			e.Link, e.Occupancy = int(ev.Link), st.Occupancy(ev.Link)
			obs.Emit(sink, e)
		}
		if ev.Down {
			downed = append(downed, ev.Link)
		}
	}
	// Adaptation sees the new topology before any re-admission attempt,
	// so rescued calls route under the adapted scheme.
	if l.cfg.TopologyHook != nil {
		l.cfg.TopologyHook(at, st)
	}
	if len(downed) == 0 {
		return
	}
	hitsDowned := func(p paths.Path) bool {
		for _, id := range p.Links {
			for _, d := range downed {
				if id == d {
					return true
				}
			}
		}
		return false
	}
	torn := l.deps.extract(hitsDowned)
	if len(torn) == 0 {
		return
	}
	// The failure hits all affected calls simultaneously: release every
	// dead path first (in call-id order), then run re-admission attempts
	// one by one so each sees the capacity freed by all teardowns plus
	// that booked by earlier rescues. Repair invariant: because every
	// call traversing a failing link is released here and no admission
	// books a down link, a repaired link always rejoins with zero
	// occupancy.
	sort.Slice(torn, func(i, j int) bool { return torn[i].meta.id < torn[j].meta.id })
	for _, tc := range torn {
		l.flushPath(tc.path, at)
		st.Release(tc.path)
		if l.occupancyEvents {
			l.sampleOccupancy(at, tc.path)
		}
	}
	measured := at >= l.cfg.Warmup && at < l.horizon
	for _, tc := range torn {
		if l.cfg.Failover == FailoverReroute {
			// One re-admission attempt over the surviving topology.
			// Arrival is the failure epoch and Holding the remaining
			// duration, so the rescued call keeps its original departure.
			c := Call{
				ID:     int(tc.meta.id),
				Origin: graph.NodeID(tc.meta.origin), Dest: graph.NodeID(tc.meta.dest),
				Arrival: at, Holding: tc.at - at,
			}
			if p, alternate, ok := l.cfg.Policy.Route(st, c); ok {
				l.flushPath(p, at)
				st.Occupy(p)
				l.deps.push(tc.at, p, tc.meta)
				if measured {
					l.res.FailureRerouted++
				}
				if l.instrumented {
					ev := l.ev.Reset(obs.KindCallRerouted, at)
					ev.Call, ev.Origin, ev.Dest = int(tc.meta.id), int(tc.meta.origin), int(tc.meta.dest)
					ev.Hops, ev.Alternate, ev.Measured = p.Hops(), alternate, measured
					obs.Emit(sink, ev)
					if l.occupancyEvents {
						l.sampleOccupancy(at, p)
					}
				}
				continue
			}
		}
		if measured {
			l.res.LostToFailure++
		}
		if l.instrumented {
			lostAt := graph.InvalidLink
			for _, id := range tc.path.Links {
				if lostAt != graph.InvalidLink {
					break
				}
				for _, d := range downed {
					if id == d {
						lostAt = id
						break
					}
				}
			}
			ev := l.ev.Reset(obs.KindCallLostFailure, at)
			ev.Call, ev.Origin, ev.Dest = int(tc.meta.id), int(tc.meta.origin), int(tc.meta.dest)
			ev.Link, ev.Hops, ev.Measured = int(lostAt), tc.path.Hops(), measured
			obs.Emit(sink, ev)
		}
	}
}

// departed processes one popped teardown: utilization, release, event.
// Each link is flushed and released in one pass, as the arrival loop's
// fused drain does; a
// link's flush reads only that link's occupancy, so this is the same
// arithmetic as flushing the whole path before releasing it.
func (l *loop) departed(at float64, path paths.Path) {
	for _, id := range path.Links {
		l.flushLink(id, at)
		l.st.ReleaseLink(id)
	}
	if l.instrumented {
		ev := l.ev.Reset(obs.KindCallDeparted, at)
		ev.Hops, ev.Measured = path.Hops(), at >= l.cfg.Warmup
		obs.Emit(l.sink, ev)
		if l.occupancyEvents {
			l.sampleOccupancy(at, path)
		}
		l.drained++
	}
}

// drainTo processes departures and plan events up to the given epoch, in
// time order. Simultaneous departures run before an arrival at that epoch
// (pop on at <= epoch), so freed capacity is visible to the admission
// decision — the event stream preserves that order. Departures tie ahead
// of plan events at the same epoch: a call ending exactly when its link
// fails completes normally. The arrival loop drains an uninstrumented
// plan-less run through its own fused copy of the departure half.
func (l *loop) drainTo(epoch float64) {
	for {
		if l.pi < len(l.plan) && l.plan[l.pi].Epoch <= epoch && !(l.deps.cal.Next() <= l.plan[l.pi].Epoch) {
			l.applyPlanGroup()
			continue
		}
		e, ok := l.deps.cal.PopTo(epoch)
		if !ok {
			break
		}
		l.departed(e.At, l.deps.release(e))
	}
}

// tally is one run's arrival-side counters while the loop runs, kept in
// the loop's frame and added into the Result once at the end.
type tally struct {
	offered, accepted, alternate, blocked, hops int64
}

// addTo adds the counters into res. Every accepted call is a primary or an
// alternate one, so the primary count is the difference.
func (n *tally) addTo(res *Result) {
	res.Offered += n.offered
	res.Accepted += n.accepted
	res.AlternateAccepted += n.alternate
	res.PrimaryAccepted += n.accepted - n.alternate
	res.Blocked += n.blocked
	res.CarriedHopCount += n.hops
}

// nextBatch returns the next calls to read in place: a Trace's whole call
// slice on the first call, a Stream's current slab, or one call pulled
// from any other source with Next. It returns an empty batch once the
// arrivals are exhausted.
func (l *loop) nextBatch(stream *Stream) []Call {
	switch {
	case l.cfg.Trace != nil:
		b := l.cfg.Trace.Calls[l.read:]
		l.read = len(l.cfg.Trace.Calls)
		return b
	case stream != nil:
		return stream.batch()
	}
	c, ok := l.cfg.Source.Next()
	if !ok {
		return nil
	}
	l.one[0] = c
	return l.one[:]
}

// emitOffered, emitAdmitted and emitBlocked report one arrival's
// decision on an instrumented run, its occupancy samples included.
func (l *loop) emitOffered(c *Call, measured bool) {
	ev := l.ev.Reset(obs.KindCallOffered, c.Arrival)
	ev.Call, ev.Origin, ev.Dest = c.ID, int(c.Origin), int(c.Dest)
	ev.Measured, ev.Drained = measured, l.drained
	obs.Emit(l.sink, ev)
	l.drained = 0
}

func (l *loop) emitAdmitted(c *Call, p []graph.LinkID, alternate, measured bool) {
	ev := l.ev.Reset(obs.KindCallAdmitted, c.Arrival)
	ev.Call, ev.Origin, ev.Dest = c.ID, int(c.Origin), int(c.Dest)
	ev.Hops, ev.Alternate, ev.Measured = len(p), alternate, measured
	obs.Emit(l.sink, ev)
	if l.occupancyEvents {
		l.sampleOccupancy(c.Arrival, paths.Path{Links: p})
	}
}

func (l *loop) emitBlocked(c *Call, blockAt graph.LinkID, measured bool) {
	ev := l.ev.Reset(obs.KindCallBlocked, c.Arrival)
	ev.Call, ev.Origin, ev.Dest = c.ID, int(c.Origin), int(c.Dest)
	ev.Link, ev.Measured = int(blockAt), measured
	obs.Emit(l.sink, ev)
}

// run is the event loop. Arrivals are read in place, by pointer, from the
// batches nextBatch hands out; each is admitted after departures and plan
// events up to its epoch are drained (guarded by the nextDep/nextPlan
// scalars). While the policy is compiled, admission runs straight through
// here: the shared kernel (routetable.Thresholds.Decide) picks the row,
// each hop's occupancy integral is flushed at the arrival epoch and
// incremented, and the teardown is queued; otherwise routeCall admits
// through Policy.Route. Both feed the same counters and events in the
// same order, so the two admission paths are bit-identical everywhere but
// the routing decision itself — which the compiled path reproduces
// exactly for the policies it accepts. Windows, emission and plan groups
// are out-of-line calls behind flags read once before the loop. Every
// plan group triggers a recompile (a TopologyHook may have swapped
// tables): a failure moves the run onto Policy.Route, a later success
// moves it back. A call that fails Call.Check stops the run with its
// error.
//
//altlint:hotpath
func (l *loop) run(th *routetable.Thresholds, compiled bool) error {
	var rowOff []int32
	var links []graph.LinkID
	if compiled {
		f := th.Table()
		rowOff, links = f.RowOff, f.Links
		l.deps.base = links
	}
	stream, _ := l.cfg.Source.(*Stream)
	nextDep, nextPlan := l.nextEpochs()
	nodes := l.numNodes
	warm, horizon := l.cfg.Warmup, l.horizon
	windowed, instrumented, pooled := l.cfg.WindowLength > 0, l.instrumented, l.deps.needMeta
	occ := l.occ
	util, last := l.util[:len(occ)], l.last[:len(occ)]
	pairOffered, pairBlocked, lostAt := l.pairOffered, l.pairBlocked, l.res.LostAtLink
	var n tally
	for batch := l.nextBatch(stream); len(batch) > 0; batch = l.nextBatch(stream) {
		for i := range batch {
			c := &batch[i]
			if !c.valid(nodes) {
				return c.Check(nodes)
			}
			if c.Arrival >= horizon {
				n.addTo(l.res)
				return nil
			}
			if nextDep <= c.Arrival || nextPlan <= c.Arrival {
				if !instrumented && l.pi == len(l.plan) {
					// The uninstrumented plan-less drain, fused: pop,
					// flush each link of the departed path at the
					// teardown epoch — flushLink's body, without the
					// horizon clip: a departure popped up to an arrival
					// lies inside the horizon — and release it, as
					// drainTo does through departed.
					for {
						e, ok := l.deps.cal.PopTo(c.Arrival)
						if !ok {
							break
						}
						for _, id := range l.deps.release(e).Links {
							lo := last[id]
							if lo < warm {
								lo = warm
							}
							o := occ[id]
							if e.At > lo && o != 0 {
								util[id] += (e.At - lo) * float64(o)
							}
							last[id] = e.At
							if o <= 0 {
								idleRelease(id)
							}
							occ[id] = o - 1
						}
					}
					nextDep = l.deps.cal.Next()
				} else {
					piBefore := l.pi
					l.drainTo(c.Arrival)
					if l.pi != piBefore {
						if compiled = compileFor(l.cfg.Policy, l.st, th); compiled {
							f := th.Table()
							rowOff, links = f.RowOff, f.Links
							l.deps.base = links
						}
					}
					nextDep, nextPlan = l.nextEpochs()
				}
			}
			pairIdx := int(uint(c.Origin)*uint(nodes) + uint(c.Dest))
			measured := c.Arrival >= warm
			var win *WindowStats
			if windowed {
				win = l.windowOf(c.Arrival)
			}
			if measured {
				n.offered++
				pairOffered[pairIdx]++
				if win != nil {
					win.Offered++
				}
			}
			if instrumented {
				l.emitOffered(c, measured)
			}

			var p []graph.LinkID // the admitted path
			var alternate, ok bool
			blockAt := graph.InvalidLink
			if compiled {
				prim, row, blockIdx := th.Decide(occ, pairIdx, int64(c.ID))
				// A pair without primaries (prim == NoRow) is carried on
				// the empty path, booking nothing, as the source table's
				// nil route set is.
				if ok = row != routetable.NoRow || prim == routetable.NoRow; ok {
					off, end := int32(0), int32(0)
					if row != routetable.NoRow {
						off, end = rowOff[row], rowOff[row+1]
					}
					p, alternate = links[off:end:end], row != prim
					// The scan just proved occ <= C−1 on every (up) hop, so
					// the direct increments cannot overbook. Each hop is
					// flushed at the arrival epoch before its increment —
					// flushLink with the horizon clip elided (the arrival
					// is inside the horizon), bit-identical to it.
					for _, id := range p {
						lo := last[id]
						if lo < warm {
							lo = warm
						}
						if o := occ[id]; c.Arrival > lo && o != 0 {
							util[id] += (c.Arrival - lo) * float64(o)
						}
						last[id] = c.Arrival
						occ[id]++
					}
					// A plan-less run queues the row reference itself (no
					// pool traffic); with plan events every path is pooled
					// with its call's identity (see departureQueue).
					if dep := c.Arrival + c.Holding; pooled {
						l.deps.push(dep, paths.Path{Links: p}, depMeta{
							id: int64(c.ID), origin: int32(c.Origin), dest: int32(c.Dest),
						})
					} else {
						l.deps.cal.Insert(depEntry{At: dep, Ref: off, N: end - off})
					}
				} else if measured {
					blockAt = links[rowOff[prim]+int32(blockIdx)]
				}
			} else {
				p, alternate, ok, blockAt = l.routeCall(c, measured)
			}

			if !ok {
				if measured {
					n.blocked++
					pairBlocked[pairIdx]++
					if win != nil {
						win.Blocked++
					}
					if blockAt != graph.InvalidLink {
						lostAt[blockAt]++
					}
				}
				if instrumented {
					l.emitBlocked(c, blockAt, measured)
				}
				continue
			}
			if measured {
				n.accepted++
				n.hops += int64(len(p))
				if alternate {
					n.alternate++
				}
			}
			if instrumented {
				l.emitAdmitted(c, p, alternate, measured)
			}
			if dep := c.Arrival + c.Holding; dep < nextDep {
				nextDep = dep
			}
		}
	}
	n.addTo(l.res)
	return nil
}

// routeCall admits one call through the policy's Route method — the
// admission path for policies that do not compile, and for a compiled
// policy whose mid-run recompile failed — booking the path and queueing
// its teardown. A blocked call's loss is attributed, when measured, to
// the first blocking link of its primary path (the paper's convention).
func (l *loop) routeCall(c *Call, measured bool) (p []graph.LinkID, alternate, ok bool, blockAt graph.LinkID) {
	blockAt = graph.InvalidLink
	path, alternate, ok := l.cfg.Policy.Route(l.st, *c)
	if ok {
		l.flushPath(path, c.Arrival)
		l.st.Occupy(path)
		l.deps.push(c.Arrival+c.Holding, path, depMeta{
			id: int64(c.ID), origin: int32(c.Origin), dest: int32(c.Dest),
		})
		return path.Links, alternate, true, blockAt
	}
	if measured {
		primary := l.cfg.Policy.PrimaryPath(l.st, *c)
		if admitted, blockLink := l.st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
			blockAt = blockLink
		}
	}
	return nil, false, false, blockAt
}

// finish drains the remaining departures and plan events inside the
// horizon, materializes the per-pair maps, and normalizes utilization.
func (l *loop) finish() {
	l.drainTo(l.horizon)
	for id := range l.occ {
		l.flushLink(graph.LinkID(id), l.horizon)
	}
	res, numNodes := l.res, l.numNodes
	// Materialize the dense per-pair counters into the public maps,
	// presized to their exact population.
	no, nb := 0, 0
	for _, v := range l.pairOffered {
		if v > 0 {
			no++
		}
	}
	for _, v := range l.pairBlocked {
		if v > 0 {
			nb++
		}
	}
	res.PerPairOffered = make(map[[2]graph.NodeID]int64, no)
	res.PerPairBlocked = make(map[[2]graph.NodeID]int64, nb)
	for i := 0; i < numNodes; i++ {
		for j := 0; j < numNodes; j++ {
			if v := l.pairOffered[i*numNodes+j]; v > 0 {
				res.PerPairOffered[[2]graph.NodeID{graph.NodeID(i), graph.NodeID(j)}] = v
			}
			if v := l.pairBlocked[i*numNodes+j]; v > 0 {
				res.PerPairBlocked[[2]graph.NodeID{graph.NodeID(i), graph.NodeID(j)}] = v
			}
		}
	}
	res.Span = l.horizon - l.cfg.Warmup
	window := res.Span
	for id := range res.LinkTimeUtil {
		res.LinkTimeUtil[id] /= window
	}
	res.Windows = l.windows
	if l.instrumented {
		l.closeWindows(len(l.windows))
		ev := l.ev.Reset(obs.KindRunEnd, l.horizon)
		ev.Offered, ev.Blocked = res.Offered, res.Blocked
		obs.Emit(l.sink, ev)
	}
}

// window resolves a run's horizon — cfg.Horizon, else the arrival
// source's own — and checks the measurement window [Warmup, horizon). NaN
// comparisons are all false, so a NaN warmup or horizon would slip past
// the range check and silently poison every counter; non-finite windows
// are rejected explicitly. Every engine (Run, RunWithRetrials,
// RunSignaling) resolves its window here.
func (cfg *Config) window(srcHorizon float64) (float64, error) {
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = srcHorizon
	}
	if math.IsNaN(cfg.Warmup) || math.IsInf(cfg.Warmup, 0) || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return 0, fmt.Errorf("sim: warmup %v and horizon %v must be finite", cfg.Warmup, horizon)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= horizon {
		return 0, fmt.Errorf("sim: warmup %v outside [0, %v)", cfg.Warmup, horizon)
	}
	return horizon, nil
}

// Run replays the trace against the policy and returns the measurement
// window statistics. Setup propagation is instantaneous: each call is
// admitted or lost atomically at its arrival epoch, which matches the
// paper's simulator. Run is deterministic.
//
// Policies whose routing is fully table-driven (see TableCompiler in
// compiled.go) are admitted on a compiled fast path — flattened route
// rows scanned against precomputed occupancy thresholds — that is
// bit-identical to calling Policy.Route; everything else is admitted
// through Policy.Route transparently.
//
//altlint:hotpath
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Policy == nil || (cfg.Trace == nil && cfg.Source == nil) {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	var seed int64
	var srcHorizon float64
	if cfg.Trace != nil {
		seed, srcHorizon = cfg.Trace.Seed, cfg.Trace.Horizon
	} else {
		seed, srcHorizon = cfg.Source.Seed(), cfg.Source.Horizon()
	}
	horizon, err := cfg.window(srcHorizon)
	if err != nil {
		return nil, err
	}
	plan, err := cfg.Failures.normalized(cfg.Graph)
	if err != nil {
		return nil, err
	}

	st := NewState(cfg.Graph)
	res := &Result{
		Policy:       cfg.Policy.Name(),
		LostAtLink:   make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil: make([]float64, cfg.Graph.NumLinks()),
	}
	// Per-pair counters accumulate in dense matrices on the hot path (one
	// index computation per call instead of two map insertions); the public
	// map form is materialized once at the end (loop.finish).
	numNodes := cfg.Graph.NumNodes()
	l := &loop{
		cfg:         cfg,
		st:          st,
		res:         res,
		plan:        plan,
		horizon:     horizon,
		numNodes:    numNodes,
		pairOffered: make([]int64, numNodes*numNodes),
		pairBlocked: make([]int64, numNodes*numNodes),
		// The nil test happens once; hot-path instrumentation blocks are
		// gated on the resulting boolean so disabled runs skip event
		// construction entirely, and every emission goes through obs.Emit
		// (sink-discipline) with the one event allocated below.
		sink:         cfg.Sink,
		instrumented: cfg.Sink != nil,
		util:         res.LinkTimeUtil,
		last:         make([]float64, cfg.Graph.NumLinks()),
		occ:          st.occ,
	}
	l.occupancyEvents = l.instrumented && cfg.OccupancyEvents
	l.deps.init(horizon, len(plan) > 0)

	if l.instrumented {
		l.ev = new(obs.Event)
		ev := l.ev.Reset(obs.KindRunStart, 0)
		ev.Policy, ev.Seed = res.Policy, seed
		obs.Emit(l.sink, ev)
	}
	var th routetable.Thresholds
	if err := l.run(&th, compileFor(cfg.Policy, st, &th)); err != nil {
		return nil, err
	}
	l.finish()
	return res, nil
}
