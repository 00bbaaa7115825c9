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
// order. Calls are counted, links' occupancy integrated and the run
// closed by Run's accounting.
func RunSignaling(cfg SignalingConfig) (*SignalingResult, error) {
	horizon, err := cfg.setUp("signaling")
	if err != nil {
		return nil, err
	}
	ap, ok := cfg.Policy.(AttemptPolicy)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s does not support signaling attempts", cfg.Policy.Name())
	}
	d := cfg.HopDelay
	if !(d >= 0 && d <= math.MaxFloat64) {
		return nil, fmt.Errorf("sim: hop delay %v must be finite and non-negative", d)
	}
	calls := cfg.Trace.Calls
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

	res := &SignalingResult{}
	var l loop
	l.init(cfg.Config, &res.Result, horizon, nil)
	st := l.st
	var n tally

	var q calendar.Queue
	q.Init(bound)
	var slots []sigSlot
	var free []int32
	push := func(at float64, s int32, kind, hop int) {
		q.Insert(calendar.Entry{At: at, Ref: s, N: int32(hop<<2 | kind)})
	}

	measured := func(c *Call) bool { return c.Arrival >= cfg.Warmup }
	// startAttempt launches the forward pass of the call's next candidate,
	// or records a block when the suite is exhausted.
	startAttempt := func(now float64, s int32) {
		sl := &slots[s]
		c := &calls[sl.call]
		p, alternate, ok := ap.Attempt(*c, int(sl.attempt))
		sl.attempt++
		if !ok {
			if measured(c) {
				l.block(&n, c, l.lossLink(c))
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
		c := &calls[sl.call]
		if measured(c) {
			n.admit(sl.path.Hops(), sl.alternate)
			res.SetupRTTSum += now - c.Arrival
		}
		push(now+c.Holding, s, sigRelease, 0)
	}

	// Every occupancy change flushes the link's integral first.
	drain := func(epoch float64) {
		for {
			e, ok := q.PopTo(epoch)
			if !ok {
				return
			}
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
					for _, down := range p.Links[hop+1:] {
						l.flushLink(down, e.At)
						st.ReleaseLink(down)
					}
					startAttempt(e.At, s)
					break
				}
				l.flushLink(id, e.At)
				st.OccupyLink(id)
				if hop > 0 {
					push(e.At+d, s, sigBook, hop-1)
					break
				}
				// Booking complete: the call commences.
				commence(e.At, s)

			case sigRelease:
				l.departed(e.At, p)
				free = append(free, s)
			}
		}
	}

	for i := range calls[:arrivals] {
		c := &calls[i]
		drain(math.Nextafter(c.Arrival, math.Inf(-1)))
		if measured(c) {
			l.offer(&n, c)
		}
		var s int32
		if k := len(free); k > 0 {
			s, free = free[k-1], free[:k-1]
			slots[s] = sigSlot{call: int32(i)}
		} else {
			s = int32(len(slots))
			slots = append(slots, sigSlot{call: int32(i)})
		}
		startAttempt(c.Arrival, s)
	}
	drain(bound)
	n.addTo(&res.Result)
	l.close()
	return res, nil
}
