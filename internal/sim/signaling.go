package sim

import (
	"fmt"
	"math"

	"repro/internal/calendar"
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

// Signaling event kinds, the low two bits of a queued entry's N (the hop
// is N>>2); Ref names the call's slot.
const (
	sigCheck   = iota // forward pass reaches hop N>>2 of the current attempt
	sigBook           // reverse pass books hop N>>2
	sigRelease        // call departure
)

// sigSlot is one call in flight under the signaling runner: set-up events
// and the departure index it, so a queued entry carries no path.
type sigSlot struct {
	path      paths.Path // the current attempt's path
	call      int32      // index into the trace
	attempt   int32      // candidates tried so far
	alternate bool       // whether the current attempt is an alternate
}

// AttemptPolicy supplies the sequence of candidate paths a call tries under
// the signaling runner: the primary first, then alternates with their
// admission rule. It is implemented by the routing policies.
type AttemptPolicy interface {
	Policy
	// Attempt returns the i-th candidate path for the call (i=0 is the
	// primary) and whether that path is subject to the alternate admission
	// rule; ok=false when the suite is exhausted. It must depend only on
	// its arguments: the runner enumerates each call's candidates before
	// the run to bound its set-up events.
	Attempt(c Call, i int) (p paths.Path, alternate bool, ok bool)
	// AdmitsHop reports whether the given link currently admits the call on
	// a (possibly alternate) attempt, under the policy's rule.
	AdmitsHop(s *State, id graph.LinkID, alternate bool) bool
}

// RunSignaling replays the trace with explicit two-phase call set-up.
// Arrivals are read from the trace in order; the calendar queue holds only
// the events in flight, each naming its call's slot. Queued events
// strictly before an arrival run first, and equal epochs pop in push
// order, so every event runs in (epoch, arrival-before-queued, push)
// order.
func RunSignaling(cfg SignalingConfig) (*SignalingResult, error) {
	if cfg.Graph == nil || cfg.Policy == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	ap, ok := cfg.Policy.(AttemptPolicy)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s does not support signaling attempts", cfg.Policy.Name())
	}
	d := cfg.HopDelay
	if !(d >= 0 && d <= math.MaxFloat64) {
		return nil, fmt.Errorf("sim: hop delay %v must be finite and non-negative", d)
	}
	horizon, err := cfg.window(cfg.Trace.Horizon)
	if err != nil {
		return nil, err
	}
	calls := cfg.Trace.Calls
	if len(calls) > math.MaxInt32 {
		return nil, fmt.Errorf("sim: %d calls exceed the signaling queue's int32 index", len(calls))
	}
	// Check the calls before the horizon and find the longest set-up chain
	// one call can schedule: attempt k's forward pass and booking pass take
	// 2·hops_k+1 hop delays at most. Every set-up event lies within that
	// many additions of d past an arrival before the horizon, so the queue
	// covers them all; a departure past that bound can free capacity for
	// no later set-up event and reaches no counter. Rounded addition is
	// monotone, so adding d step by step from the horizon bounds every
	// event epoch exactly.
	arrivals, steps := 0, 0
	for _, c := range calls {
		if err := c.Check(cfg.Graph.NumNodes()); err != nil {
			return nil, err
		}
		if c.Arrival >= horizon {
			break
		}
		arrivals++
		if d == 0 {
			continue
		}
		n := 0
		for k := 0; ; k++ {
			p, _, ok := ap.Attempt(c, k)
			if !ok {
				break
			}
			n += 2*p.Hops() + 1
		}
		steps = max(steps, n)
	}
	bound := horizon
	for range steps {
		bound += d
	}
	if math.IsInf(bound, 0) {
		return nil, fmt.Errorf("sim: hop delay %v overflows the set-up horizon", d)
	}

	st := NewState(cfg.Graph)
	res := &SignalingResult{Result: cfg.eventResult()}

	var q calendar.Queue
	q.Init(bound)
	var slots []sigSlot
	var free []int32
	push := func(at float64, s int32, kind, hop int) {
		q.Insert(calendar.Entry{At: at, Ref: s, N: int32(hop<<2 | kind)})
	}

	measured := func(c Call) bool { return c.Arrival >= cfg.Warmup && c.Arrival < horizon }
	// startAttempt launches the forward pass of the call's next candidate,
	// or records a block when the suite is exhausted.
	startAttempt := func(now float64, s int32) {
		sl := &slots[s]
		c := calls[sl.call]
		p, alternate, ok := ap.Attempt(c, int(sl.attempt))
		sl.attempt++
		if !ok {
			if measured(c) {
				res.lose(st, ap, c)
			}
			free = append(free, s)
			return
		}
		sl.path, sl.alternate = p, alternate
		push(now+d, s, sigCheck, 0)
	}
	// commence books the call's tally once its path is fully booked and
	// schedules its departure.
	commence := func(now float64, s int32) {
		sl := &slots[s]
		c := calls[sl.call]
		if measured(c) {
			res.Accepted++
			res.CarriedHopCount += int64(sl.path.Hops())
			res.SetupRTTSum += now - c.Arrival
			if sl.alternate {
				res.AlternateAccepted++
			} else {
				res.PrimaryAccepted++
			}
		}
		push(now+c.Holding, s, sigRelease, 0)
	}

	util := occupancyIntegral{st: st, util: res.LinkTimeUtil, warmup: cfg.Warmup, horizon: horizon}
	drain := func(epoch float64) {
		for {
			e, ok := q.PopTo(epoch)
			if !ok {
				return
			}
			util.advance(e.At)
			s, hop := e.Ref, int(e.N>>2)
			p := slots[s].path
			switch e.N & 3 {
			case sigCheck:
				if hop < p.Hops() {
					if !ap.AdmitsHop(st, p.Links[hop], slots[s].alternate) {
						// Forward check failed: try the next candidate now.
						startAttempt(e.At, s)
						break
					}
					push(e.At+d, s, sigCheck, hop+1)
					break
				}
				if p.Hops() == 0 {
					// A zero-hop candidate books nothing: the call
					// commences when the check reaches its destination.
					commence(e.At, s)
					break
				}
				// Reached the destination: book backward starting with the
				// last link.
				push(e.At+d, s, sigBook, p.Hops()-1)

			case sigBook:
				id := p.Links[hop]
				if st.Free(id) < 1 {
					// Race lost: release downstream bookings (hops > hop)
					// and move to the next candidate.
					res.BookingFailures++
					for h := hop + 1; h < p.Hops(); h++ {
						st.ReleaseLink(p.Links[h])
					}
					startAttempt(e.At, s)
					break
				}
				st.OccupyLink(id)
				if hop > 0 {
					push(e.At+d, s, sigBook, hop-1)
					break
				}
				// Booking complete: the call commences.
				commence(e.At, s)

			case sigRelease:
				st.Release(p)
				free = append(free, s)
			}
		}
	}

	for i, c := range calls[:arrivals] {
		drain(math.Nextafter(c.Arrival, math.Inf(-1)))
		util.advance(c.Arrival)
		if measured(c) {
			res.offer(c)
		}
		var s int32
		if n := len(free); n > 0 {
			s, free = free[n-1], free[:n-1]
			slots[s] = sigSlot{call: int32(i)}
		} else {
			s = int32(len(slots))
			slots = append(slots, sigSlot{call: int32(i)})
		}
		startAttempt(c.Arrival, s)
	}
	drain(bound)
	res.Span = util.finish()
	return res, nil
}

// eventResult returns the empty Result RunWithRetrials and RunSignaling
// count into.
func (cfg *Config) eventResult() Result {
	return Result{
		Policy:         cfg.Policy.Name(),
		PerPairOffered: make(map[[2]graph.NodeID]int64),
		PerPairBlocked: make(map[[2]graph.NodeID]int64),
		LostAtLink:     make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil:   make([]float64, cfg.Graph.NumLinks()),
	}
}

// offer counts a measured call's first offer.
func (r *Result) offer(c Call) {
	r.Offered++
	r.PerPairOffered[[2]graph.NodeID{c.Origin, c.Dest}]++
}

// lose counts a measured call's definitive loss, attributed to the first
// blocking link of its primary path (the paper's convention).
func (r *Result) lose(st *State, pol Policy, c Call) {
	r.Blocked++
	r.PerPairBlocked[[2]graph.NodeID{c.Origin, c.Dest}]++
	if admitted, at := st.PathAdmitsPrimary(pol.PrimaryPath(st, c)); !admitted && at != graph.InvalidLink {
		r.LostAtLink[at]++
	}
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
