package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/paths"
)

// SignalingConfig extends Config with an explicit call set-up mechanism: the
// set-up packet "zips along the primary path checking to see whether
// sufficient resources exist on each link... If they do, resources are
// booked on its way back, and the call commences" (§1). With a non-zero
// per-hop latency the check and the booking are separated in time, so a link
// that admitted the set-up on the forward pass can be full by the time the
// booking pass returns — the race the instantaneous model hides. Booking is
// per-link and atomic; a failed booking releases the links already booked
// downstream and the call proceeds to its next alternate attempt.
type SignalingConfig struct {
	Config
	// HopDelay is the one-way signaling latency per hop, in holding-time
	// units. Zero reduces exactly to Run's semantics (verified by tests).
	HopDelay float64
}

// SignalingResult extends Result with set-up race accounting.
type SignalingResult struct {
	Result
	// BookingFailures counts per-link booking attempts that found the link
	// full after a successful forward check.
	BookingFailures int64
	// SetupRTTSum accumulates the signaling round-trip time of accepted
	// calls (seconds of simulated time); divide by Accepted for the mean.
	SetupRTTSum float64
}

// signaling event kinds.
type sigKind int

const (
	sigArrival sigKind = iota
	sigCheck           // forward pass reaches hop i of the current attempt
	sigBook            // reverse pass books hop i
	sigRelease         // call departure
)

type sigEvent struct {
	at   float64
	kind sigKind
	seq  int64 // tie-break for determinism
	call *sigCall
	hop  int
	path paths.Path
}

type sigCall struct {
	Call
	attempt      int  // index into candidate paths tried so far
	curAlternate bool // whether the in-flight attempt is an alternate
}

type sigHeap []sigEvent

func (h sigHeap) Len() int { return len(h) }
func (h sigHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h sigHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sigHeap) Push(x interface{}) { *h = append(*h, x.(sigEvent)) }
func (h *sigHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// AttemptPolicy supplies the sequence of candidate paths a call tries under
// the signaling runner: the primary first, then alternates with their
// admission rule. It is implemented by the routing policies.
type AttemptPolicy interface {
	Policy
	// Attempt returns the i-th candidate path for the call (i=0 is the
	// primary) and whether that path is subject to the alternate admission
	// rule; ok=false when the suite is exhausted.
	Attempt(c Call, i int) (p paths.Path, alternate bool, ok bool)
	// AdmitsHop reports whether the given link currently admits the call on
	// a (possibly alternate) attempt, under the policy's rule.
	AdmitsHop(s *State, id graph.LinkID, alternate bool) bool
}

// RunSignaling replays the trace with explicit two-phase call set-up.
func RunSignaling(cfg SignalingConfig) (*SignalingResult, error) {
	if cfg.Graph == nil || cfg.Policy == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	ap, ok := cfg.Policy.(AttemptPolicy)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s does not support signaling attempts", cfg.Policy.Name())
	}
	if cfg.HopDelay < 0 {
		return nil, fmt.Errorf("sim: negative hop delay")
	}
	horizon, err := cfg.window(cfg.Trace.Horizon)
	if err != nil {
		return nil, err
	}

	st := NewState(cfg.Graph)
	res := &SignalingResult{Result: Result{
		Policy:         cfg.Policy.Name(),
		PerPairOffered: make(map[[2]graph.NodeID]int64),
		PerPairBlocked: make(map[[2]graph.NodeID]int64),
		LostAtLink:     make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil:   make([]float64, cfg.Graph.NumLinks()),
	}}

	events := &sigHeap{}
	heap.Init(events)
	var seq int64
	push := func(e sigEvent) {
		seq++
		e.seq = seq
		heap.Push(events, e)
	}
	for i := range cfg.Trace.Calls {
		c := cfg.Trace.Calls[i]
		if err := c.Check(cfg.Graph.NumNodes()); err != nil {
			return nil, err
		}
		if c.Arrival >= horizon {
			break
		}
		push(sigEvent{at: c.Arrival, kind: sigArrival, call: &sigCall{Call: c}})
	}

	measured := func(c *sigCall) bool { return c.Arrival >= cfg.Warmup && c.Arrival < horizon }
	block := func(c *sigCall) {
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

	// startAttempt launches the forward pass of the call's next candidate,
	// or records a block when the suite is exhausted.
	var startAttempt func(now float64, c *sigCall)
	startAttempt = func(now float64, c *sigCall) {
		p, alternate, ok := ap.Attempt(c.Call, c.attempt)
		c.attempt++
		if !ok {
			block(c)
			return
		}
		c.curAlternate = alternate
		push(sigEvent{at: now + cfg.HopDelay, kind: sigCheck, call: c, hop: 0, path: p})
	}

	util := occupancyIntegral{st: st, util: res.LinkTimeUtil, warmup: cfg.Warmup, horizon: horizon}

	for events.Len() > 0 {
		e := heap.Pop(events).(sigEvent)
		util.advance(e.at)
		switch e.kind {
		case sigArrival:
			if measured(e.call) {
				res.Offered++
				res.PerPairOffered[[2]graph.NodeID{e.call.Origin, e.call.Dest}]++
			}
			startAttempt(e.at, e.call)

		case sigCheck:
			p := e.path
			if e.hop < p.Hops() {
				id := p.Links[e.hop]
				if !ap.AdmitsHop(st, id, e.call.curAlternate) {
					// Forward check failed: try the next candidate now.
					startAttempt(e.at, e.call)
					break
				}
				push(sigEvent{at: e.at + cfg.HopDelay, kind: sigCheck, call: e.call, hop: e.hop + 1, path: p})
				break
			}
			// Reached the destination: book backward starting with the last
			// link.
			push(sigEvent{at: e.at + cfg.HopDelay, kind: sigBook, call: e.call, hop: p.Hops() - 1, path: p})

		case sigBook:
			p := e.path
			id := p.Links[e.hop]
			if st.Free(id) < 1 {
				// Race lost: release downstream bookings (hops > e.hop) and
				// move to the next candidate.
				res.BookingFailures++
				for h := e.hop + 1; h < p.Hops(); h++ {
					st.ReleaseLink(p.Links[h])
				}
				startAttempt(e.at, e.call)
				break
			}
			st.OccupyLink(id)
			if e.hop > 0 {
				push(sigEvent{at: e.at + cfg.HopDelay, kind: sigBook, call: e.call, hop: e.hop - 1, path: p})
				break
			}
			// Booking complete: the call commences.
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
			push(sigEvent{at: e.at + e.call.Holding, kind: sigRelease, call: e.call, path: p})

		case sigRelease:
			st.Release(e.path)
		}
	}
	res.Span = util.finish()
	return res, nil
}

// occupancyIntegral integrates every link's occupancy over the measurement
// window [warmup, horizon) for the event-heap engines (RunSignaling,
// RunWithRetrials): advance runs before each event at its epoch, finish
// closes the window, normalizes util to time averages and returns the
// window length (Result.Span).
type occupancyIntegral struct {
	st              *State
	util            []float64
	warmup, horizon float64
	last            float64
}

func (o *occupancyIntegral) advance(now float64) {
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

func (o *occupancyIntegral) finish() float64 {
	o.advance(o.horizon)
	window := o.horizon - o.warmup
	for id := range o.util {
		o.util[id] /= window
	}
	return window
}
