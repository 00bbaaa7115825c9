package sim_test

// RunWithRetrials and RunSignaling used to run their own container/heap
// loops, every trace arrival pushed before the first event. Those loops
// are kept here verbatim (but for the exported names and the inlined
// window check) as the references the calendar-queue engines must match
// result for result.

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/sim"
	"repro/internal/xrand"
)

type refRetrialEvent struct {
	at      float64
	seq     int64
	call    sim.Call
	attempt int
	release bool
	path    int
}

type refRetrialHeap []refRetrialEvent

func (h refRetrialHeap) Len() int { return len(h) }
func (h refRetrialHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refRetrialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refRetrialHeap) Push(x interface{}) { *h = append(*h, x.(refRetrialEvent)) }
func (h *refRetrialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refWindow is Config.window for the references: the trace horizon unless
// one is configured.
func refWindow(cfg sim.Config) float64 {
	if cfg.Horizon > 0 {
		return cfg.Horizon
	}
	return cfg.Trace.Horizon
}

func newRefResult(cfg sim.Config) sim.Result {
	return sim.Result{
		Policy:         cfg.Policy.Name(),
		PerPairOffered: make(map[[2]graph.NodeID]int64),
		PerPairBlocked: make(map[[2]graph.NodeID]int64),
		LostAtLink:     make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil:   make([]float64, cfg.Graph.NumLinks()),
	}
}

func refRunWithRetrials(cfg sim.RetrialConfig) *sim.RetrialResult {
	if cfg.MeanBackoff <= 0 {
		cfg.MeanBackoff = 0.1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	horizon := refWindow(cfg.Config)
	st := sim.NewState(cfg.Graph)
	res := &sim.RetrialResult{Result: newRefResult(cfg.Config)}
	rng := xrand.New(cfg.Seed, 271828)

	events := &refRetrialHeap{}
	heap.Init(events)
	var seq int64
	push := func(e refRetrialEvent) {
		seq++
		e.seq = seq
		heap.Push(events, e)
	}
	for _, c := range cfg.Trace.Calls {
		if c.Arrival >= horizon {
			break
		}
		push(refRetrialEvent{at: c.Arrival, call: c})
	}
	var activePaths []paths.Path
	measured := func(c sim.Call) bool { return c.Arrival >= cfg.Warmup && c.Arrival < horizon }
	util := refOccupancy{st: st, util: res.LinkTimeUtil, warmup: cfg.Warmup, horizon: horizon}
	for events.Len() > 0 {
		e := heap.Pop(events).(refRetrialEvent)
		util.advance(e.at)
		if e.release {
			st.Release(activePaths[e.path])
			continue
		}
		c := e.call
		if measured(c) && e.attempt == 0 {
			res.Offered++
			res.PerPairOffered[[2]graph.NodeID{c.Origin, c.Dest}]++
		}
		if measured(c) && e.attempt > 0 {
			res.Retries++
		}
		decision := c
		decision.Arrival = e.at
		p, alternate, ok := cfg.Policy.Route(st, decision)
		if ok {
			st.Occupy(p)
			activePaths = append(activePaths, p)
			push(refRetrialEvent{at: e.at + c.Holding, release: true, path: len(activePaths) - 1})
			if measured(c) {
				res.Accepted++
				res.CarriedHopCount += int64(p.Hops())
				if alternate {
					res.AlternateAccepted++
				} else {
					res.PrimaryAccepted++
				}
				if e.attempt > 0 {
					res.RetrySuccesses++
				}
			}
			continue
		}
		if e.attempt+1 < cfg.MaxAttempts && rng.Float64() < cfg.RetryProbability {
			backoff := xrand.Exp(rng, cfg.MeanBackoff)
			if e.at+backoff < horizon {
				push(refRetrialEvent{at: e.at + backoff, call: c, attempt: e.attempt + 1})
				continue
			}
		}
		if measured(c) {
			res.Blocked++
			res.PerPairBlocked[[2]graph.NodeID{c.Origin, c.Dest}]++
			primary := cfg.Policy.PrimaryPath(st, decision)
			if admitted, blockLink := st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
				res.LostAtLink[blockLink]++
			}
		}
	}
	res.Span = util.finish()
	return res
}

type refSigKind int

const (
	refSigArrival refSigKind = iota
	refSigCheck
	refSigBook
	refSigRelease
)

type refSigEvent struct {
	at   float64
	kind refSigKind
	seq  int64
	call *refSigCall
	hop  int
	path paths.Path
}

type refSigCall struct {
	sim.Call
	attempt      int
	curAlternate bool
}

type refSigHeap []refSigEvent

func (h refSigHeap) Len() int { return len(h) }
func (h refSigHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refSigHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refSigHeap) Push(x interface{}) { *h = append(*h, x.(refSigEvent)) }
func (h *refSigHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func refRunSignaling(cfg sim.SignalingConfig) *sim.SignalingResult {
	ap := cfg.Policy.(sim.AttemptPolicy)
	horizon := refWindow(cfg.Config)
	st := sim.NewState(cfg.Graph)
	res := &sim.SignalingResult{Result: newRefResult(cfg.Config)}

	events := &refSigHeap{}
	heap.Init(events)
	var seq int64
	push := func(e refSigEvent) {
		seq++
		e.seq = seq
		heap.Push(events, e)
	}
	for i := range cfg.Trace.Calls {
		c := cfg.Trace.Calls[i]
		if c.Arrival >= horizon {
			break
		}
		push(refSigEvent{at: c.Arrival, kind: refSigArrival, call: &refSigCall{Call: c}})
	}
	measured := func(c *refSigCall) bool { return c.Arrival >= cfg.Warmup && c.Arrival < horizon }
	block := func(c *refSigCall) {
		if !measured(c) {
			return
		}
		res.Blocked++
		res.PerPairBlocked[[2]graph.NodeID{c.Origin, c.Dest}]++
		primary := ap.PrimaryPath(st, c.Call)
		if admitted, blockLink := st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
			res.LostAtLink[blockLink]++
		}
	}
	var startAttempt func(now float64, c *refSigCall)
	startAttempt = func(now float64, c *refSigCall) {
		p, alternate, ok := ap.Attempt(c.Call, c.attempt)
		c.attempt++
		if !ok {
			block(c)
			return
		}
		c.curAlternate = alternate
		push(refSigEvent{at: now + cfg.HopDelay, kind: refSigCheck, call: c, hop: 0, path: p})
	}
	util := refOccupancy{st: st, util: res.LinkTimeUtil, warmup: cfg.Warmup, horizon: horizon}
	for events.Len() > 0 {
		e := heap.Pop(events).(refSigEvent)
		util.advance(e.at)
		switch e.kind {
		case refSigArrival:
			if measured(e.call) {
				res.Offered++
				res.PerPairOffered[[2]graph.NodeID{e.call.Origin, e.call.Dest}]++
			}
			startAttempt(e.at, e.call)
		case refSigCheck:
			p := e.path
			if e.hop < p.Hops() {
				id := p.Links[e.hop]
				if !ap.AdmitsHop(st, id, e.call.curAlternate) {
					startAttempt(e.at, e.call)
					break
				}
				push(refSigEvent{at: e.at + cfg.HopDelay, kind: refSigCheck, call: e.call, hop: e.hop + 1, path: p})
				break
			}
			push(refSigEvent{at: e.at + cfg.HopDelay, kind: refSigBook, call: e.call, hop: p.Hops() - 1, path: p})
		case refSigBook:
			p := e.path
			id := p.Links[e.hop]
			if st.Free(id) < 1 {
				res.BookingFailures++
				for h := e.hop + 1; h < p.Hops(); h++ {
					st.ReleaseLink(p.Links[h])
				}
				startAttempt(e.at, e.call)
				break
			}
			st.OccupyLink(id)
			if e.hop > 0 {
				push(refSigEvent{at: e.at + cfg.HopDelay, kind: refSigBook, call: e.call, hop: e.hop - 1, path: p})
				break
			}
			if measured(e.call) {
				res.Accepted++
				res.CarriedHopCount += int64(p.Hops())
				res.SetupRTTSum += e.at - e.call.Arrival
				if e.call.curAlternate {
					res.AlternateAccepted++
				} else {
					res.PrimaryAccepted++
				}
			}
			push(refSigEvent{at: e.at + e.call.Holding, kind: refSigRelease, call: e.call, path: p})
		case refSigRelease:
			st.Release(e.path)
		}
	}
	res.Span = util.finish()
	return res
}

type refOccupancy struct {
	st              *sim.State
	util            []float64
	warmup, horizon float64
	last            float64
}

func (o *refOccupancy) advance(now float64) {
	lo := o.last
	if lo < o.warmup {
		lo = o.warmup
	}
	hi := now
	if hi > o.horizon {
		hi = o.horizon
	}
	if hi > lo {
		dt := hi - lo
		for id := range o.util {
			o.util[id] += dt * float64(o.st.Occupancy(graph.LinkID(id)))
		}
	}
	if now > o.last {
		o.last = now
	}
}

func (o *refOccupancy) finish() float64 {
	o.advance(o.horizon)
	window := o.horizon - o.warmup
	for id := range o.util {
		o.util[id] /= window
	}
	return window
}

// refTraces returns, per scenario and seed, the plain trace and a gridded
// copy whose arrival and holding times are rounded up to multiples of
// 1/16: equal epochs between arrivals, departures and (at hop delays on
// the grid) set-up events become common, so the tie order is exercised,
// not just the continuous case.
func refTraces(sc goldenScenario, seed int64) map[string]*sim.Trace {
	tr := sim.GenerateTrace(sc.m, sc.horizon, seed)
	grid := &sim.Trace{Horizon: tr.Horizon, Seed: tr.Seed, Calls: append([]sim.Call(nil), tr.Calls...)}
	for i := range grid.Calls {
		c := &grid.Calls[i]
		c.Arrival = math.Ceil(c.Arrival*16) / 16
		c.Holding = math.Ceil(c.Holding*16) / 16
	}
	return map[string]*sim.Trace{"plain": tr, "grid": grid}
}

// refScenarios are the quadrangle and NSFNet golden scenarios over six
// holding times, each run seeing thousands of calls in a congested
// network.
func refScenarios(t *testing.T) []goldenScenario {
	var out []goldenScenario
	for _, sc := range goldenScenarios(t) {
		if sc.name != "ring6" {
			sc.horizon, sc.warmup = 6, 1
			out = append(out, sc)
		}
	}
	return out
}

// refSeeds are the seeds each comparison runs: ten, or three under
// -short and -race, whose instrumentation makes the heap references
// several times slower.
func refSeeds() []int64 {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() || sim.RaceEnabled {
		return seeds[:3]
	}
	return seeds
}

// TestRetrialsMatchHeapReference: the calendar-queue RunWithRetrials
// returns exactly the heap engine's RetrialResult for every policy, retry
// probability and seed, on plain and gridded traces.
func TestRetrialsMatchHeapReference(t *testing.T) {
	for _, sc := range refScenarios(t) {
		pols := goldenPolicies(t, sc)
		for _, seed := range refSeeds() {
			for kind, tr := range refTraces(sc, seed) {
				for name, pol := range pols {
					for _, prob := range []float64{0.3, 0.9} {
						cfg := sim.RetrialConfig{
							Config:           sim.Config{Graph: sc.g, Policy: pol, Trace: tr, Warmup: sc.warmup},
							RetryProbability: prob,
							MeanBackoff:      0.2,
							Seed:             seed,
						}
						got, err := sim.RunWithRetrials(cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := refRunWithRetrials(cfg)
						label := fmt.Sprintf("%s/%s/%s/p=%v/seed %d", sc.name, kind, name, prob, seed)
						requireSameResult(t, label, &got.Result, &want.Result)
						if got.Retries != want.Retries || got.RetrySuccesses != want.RetrySuccesses {
							t.Fatalf("%s: retries (%d, %d) != (%d, %d)", label,
								got.Retries, got.RetrySuccesses, want.Retries, want.RetrySuccesses)
						}
						if got.Retries == 0 {
							t.Fatalf("%s: no retries: the case exercises nothing", label)
						}
					}
				}
			}
		}
	}
}

// TestSignalingMatchesHeapReference: the calendar-queue RunSignaling
// returns exactly the heap engine's SignalingResult for every signaling
// policy and seed: at hop delays 0, 0.001 and 0.05 on plain traces, and
// at 0 and the grid step 1/16 on gridded ones, where set-up events,
// arrivals and departures share epochs.
func TestSignalingMatchesHeapReference(t *testing.T) {
	delays := map[string][]float64{"plain": {0, 0.001, 0.05}, "grid": {0, 0.0625}}
	var races int64
	for _, sc := range refScenarios(t) {
		pols := compiledGoldenPolicies(t, sc)
		for _, seed := range refSeeds() {
			for kind, tr := range refTraces(sc, seed) {
				for name, pol := range pols {
					for _, d := range delays[kind] {
						cfg := sim.SignalingConfig{
							Config:   sim.Config{Graph: sc.g, Policy: pol, Trace: tr, Warmup: sc.warmup},
							HopDelay: d,
						}
						got, err := sim.RunSignaling(cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := refRunSignaling(cfg)
						label := fmt.Sprintf("%s/%s/%s/d=%v/seed %d", sc.name, kind, name, d, seed)
						requireSameResult(t, label, &got.Result, &want.Result)
						if got.BookingFailures != want.BookingFailures || !sameFloat(got.SetupRTTSum, want.SetupRTTSum) {
							t.Fatalf("%s: races and RTT sum (%d, %v) != (%d, %v)", label,
								got.BookingFailures, got.SetupRTTSum, want.BookingFailures, want.SetupRTTSum)
						}
						races += got.BookingFailures
					}
				}
			}
		}
	}
	if races == 0 {
		t.Fatal("no booking race in any run: the set-up race path went untested")
	}
}
