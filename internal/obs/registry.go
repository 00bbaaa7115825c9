package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// IntHist is a histogram over small non-negative integers with atomic
// buckets; values at or beyond the bucket count clamp into the last bucket.
type IntHist struct {
	buckets []atomic.Int64
}

// NewIntHist returns a histogram with n buckets (n >= 1).
func NewIntHist(n int) *IntHist {
	if n < 1 {
		n = 1
	}
	return &IntHist{buckets: make([]atomic.Int64, n)}
}

// Observe counts one sample. Negative values clamp to 0.
func (h *IntHist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v].Add(1)
}

// Counts returns the bucket counts with trailing zero buckets trimmed.
func (h *IntHist) Counts() []int64 {
	n := len(h.buckets)
	for n > 0 && h.buckets[n-1].Load() == 0 {
		n--
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Total returns the number of samples observed.
func (h *IntHist) Total() int64 {
	var t int64
	for i := range h.buckets {
		t += h.buckets[i].Load()
	}
	return t
}

// Registry aggregates an event stream into cheap concurrent metrics: run
// and call counters, the path-length distribution of carried calls, the
// distribution of event-loop work per admission decision, and a per-link
// occupancy distribution sampled at occupancy changes. It also collects
// solver convergence traces. A Registry is itself a Sink, so it composes
// with other sinks via Multi, and it may be shared by concurrent runs.
type Registry struct {
	runs, events                       atomic.Int64
	offered, accepted, blocked         atomic.Int64
	primaryAccepted, alternateAccepted atomic.Int64
	departed                           atomic.Int64
	lostToFailure, failureRerouted     atomic.Int64
	linkDowns, linkUps                 atomic.Int64

	carriedHops *IntHist
	drained     *IntHist

	mu      sync.RWMutex
	spanSum float64
	linkOcc []*IntHist
	solvers map[string]*ConvergenceTrace
}

const (
	maxHopBuckets       = 32
	maxDrainBuckets     = 128
	maxOccupancyBuckets = 512
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		carriedHops: NewIntHist(maxHopBuckets),
		drained:     NewIntHist(maxDrainBuckets),
		solvers:     make(map[string]*ConvergenceTrace),
	}
}

// Event implements Sink: it folds one event into the counters. Only
// measured events enter the blocking counters, mirroring sim.Result.
func (r *Registry) Event(e *Event) {
	r.events.Add(1)
	switch e.Kind {
	case KindRunStart:
		r.runs.Add(1)
	case KindCallOffered:
		if e.Measured {
			r.offered.Add(1)
			r.drained.Observe(e.Drained)
		}
	case KindCallAdmitted:
		if e.Measured {
			r.accepted.Add(1)
			r.carriedHops.Observe(e.Hops)
			if e.Alternate {
				r.alternateAccepted.Add(1)
			} else {
				r.primaryAccepted.Add(1)
			}
		}
	case KindCallBlocked:
		if e.Measured {
			r.blocked.Add(1)
		}
	case KindCallDeparted:
		r.departed.Add(1)
	case KindCallLostFailure:
		if e.Measured {
			r.lostToFailure.Add(1)
		}
	case KindCallRerouted:
		if e.Measured {
			r.failureRerouted.Add(1)
		}
	case KindLinkDown:
		r.linkDowns.Add(1)
	case KindLinkUp:
		r.linkUps.Add(1)
	case KindLinkOccupancy:
		r.linkHist(e.Link).Observe(e.Occupancy)
	}
}

// linkHist returns link's occupancy histogram, growing the table on demand.
func (r *Registry) linkHist(link int) *IntHist {
	if link < 0 {
		link = 0
	}
	r.mu.RLock()
	if link < len(r.linkOcc) {
		h := r.linkOcc[link]
		r.mu.RUnlock()
		return h
	}
	r.mu.RUnlock()
	r.mu.Lock()
	for len(r.linkOcc) <= link {
		r.linkOcc = append(r.linkOcc, NewIntHist(maxOccupancyBuckets))
	}
	h := r.linkOcc[link]
	r.mu.Unlock()
	return h
}

// AddSpan accumulates one completed run's measurement-window length
// (sim.Result.Span). The total simulated time turns the event counters into
// rates: Snapshot.Throughput is accepted calls per simulated time unit —
// the registry-level form of sim.Result.Throughput. Safe for concurrent
// use.
func (r *Registry) AddSpan(span float64) {
	if span <= 0 {
		return
	}
	r.mu.Lock()
	r.spanSum += span
	r.mu.Unlock()
}

// Solver returns the named convergence trace, creating it on first use —
// pass its Observe method as the solver's iteration hook.
func (r *Registry) Solver(name string) *ConvergenceTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.solvers[name]
	if !ok {
		t = &ConvergenceTrace{Name: name}
		r.solvers[name] = t
	}
	return t
}

// Snapshot is a point-in-time JSON-exportable copy of the registry.
// Blocking is nil until at least one measured call was offered (the
// zero-offered blocking probability is undefined, not zero).
type Snapshot struct {
	Runs              int64 `json:"runs"`
	Events            int64 `json:"events"`
	Offered           int64 `json:"offered"`
	Accepted          int64 `json:"accepted"`
	PrimaryAccepted   int64 `json:"primary_accepted"`
	AlternateAccepted int64 `json:"alternate_accepted"`
	Blocked           int64 `json:"blocked"`
	Departed          int64 `json:"departed"`
	// LostToFailure and FailureRerouted count in-flight calls torn down or
	// rescued at measured failure epochs; LinkDowns and LinkUps count the
	// failure and repair events themselves (sim.Config.Failures runs).
	LostToFailure   int64    `json:"lost_to_failure,omitempty"`
	FailureRerouted int64    `json:"failure_rerouted,omitempty"`
	LinkDowns       int64    `json:"link_downs,omitempty"`
	LinkUps         int64    `json:"link_ups,omitempty"`
	Blocking        *float64 `json:"blocking,omitempty"`
	// CarriedHops is the path-length histogram of carried calls (index =
	// hops).
	CarriedHops []int64 `json:"carried_hops,omitempty"`
	// DrainedPerArrival is the histogram of departures processed per
	// admission decision — the event-loop latency of an admission, in
	// events.
	DrainedPerArrival []int64 `json:"drained_per_arrival,omitempty"`
	// SpanTotal is the simulated time accumulated via AddSpan (the sum of
	// measurement windows across completed runs), and Throughput the carried
	// call rate Accepted/SpanTotal over it — nil until some span is
	// recorded.
	SpanTotal  float64  `json:"span_total,omitempty"`
	Throughput *float64 `json:"throughput,omitempty"`
	// LinkOccupancy is, per link, the distribution of sampled occupancies
	// (index = occupancy, in calls).
	LinkOccupancy [][]int64 `json:"link_occupancy,omitempty"`
	// Solvers holds the collected convergence traces by solver name.
	Solvers map[string][]SolverIteration `json:"solvers,omitempty"`
}

// Snapshot captures the registry. It is safe to call concurrently with
// updates; counters are read individually, so cross-counter consistency is
// approximate while runs are in flight.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Runs:              r.runs.Load(),
		Events:            r.events.Load(),
		Offered:           r.offered.Load(),
		Accepted:          r.accepted.Load(),
		PrimaryAccepted:   r.primaryAccepted.Load(),
		AlternateAccepted: r.alternateAccepted.Load(),
		Blocked:           r.blocked.Load(),
		Departed:          r.departed.Load(),
		LostToFailure:     r.lostToFailure.Load(),
		FailureRerouted:   r.failureRerouted.Load(),
		LinkDowns:         r.linkDowns.Load(),
		LinkUps:           r.linkUps.Load(),
		CarriedHops:       r.carriedHops.Counts(),
		DrainedPerArrival: r.drained.Counts(),
	}
	if s.Offered > 0 {
		b := float64(s.Blocked) / float64(s.Offered)
		s.Blocking = &b
	}
	r.mu.RLock()
	if r.spanSum > 0 {
		s.SpanTotal = r.spanSum
		tp := float64(s.Accepted) / r.spanSum
		s.Throughput = &tp
	}
	if len(r.linkOcc) > 0 {
		s.LinkOccupancy = make([][]int64, len(r.linkOcc))
		for i, h := range r.linkOcc {
			s.LinkOccupancy[i] = h.Counts()
		}
	}
	if len(r.solvers) > 0 {
		s.Solvers = make(map[string][]SolverIteration, len(r.solvers))
		for name, t := range r.solvers {
			s.Solvers[name] = t.Iterations()
		}
	}
	r.mu.RUnlock()
	return s
}

// WriteJSON writes an indented snapshot to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
