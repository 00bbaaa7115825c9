package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/xrand"
)

// RetrialConfig extends Config with customer retrials: a blocked call
// re-attempts after an exponential back-off with some probability, the
// classical "repeated attempts" behaviour of real users. Retrials make the
// effective arrival process state dependent — blocked traffic returns when
// the network is likely still congested — which violates the paper's
// assumption A2 (state-independent primary arrivals); the retrial experiment
// measures whether the controlled scheme's dominance survives that
// violation in practice.
type RetrialConfig struct {
	Config
	// RetryProbability is the chance a blocked attempt retries (per
	// attempt; a call may retry repeatedly, each time with this
	// probability).
	RetryProbability float64
	// MeanBackoff is the mean of the exponential delay before a retry
	// (holding-time units).
	MeanBackoff float64
	// MaxAttempts caps the total attempts per call (0 = 10).
	MaxAttempts int
	// Seed drives the retry coin flips and back-offs (independent of the
	// trace's randomness).
	Seed int64
}

// RetrialResult extends Result with retrial accounting. The Result counters
// count *first attempts* (fresh offered calls): a call is "blocked" only
// when it exhausts its attempts, so Blocking() remains comparable with the
// no-retrial runs.
type RetrialResult struct {
	Result
	// Retries is the number of re-attempts generated in the measurement
	// window; RetrySuccesses the number that were eventually admitted.
	Retries, RetrySuccesses int64
}

// retrialEvent is either a fresh arrival (attempt == 0) or a retry.
type retrialEvent struct {
	at      float64
	seq     int64
	call    Call
	attempt int
	release bool // true for departures
	path    int  // index into active paths for releases
}

type retrialHeap []retrialEvent

func (h retrialHeap) Len() int { return len(h) }
func (h retrialHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h retrialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *retrialHeap) Push(x interface{}) { *h = append(*h, x.(retrialEvent)) }
func (h *retrialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// RunWithRetrials replays the trace with blocked-call retrials.
func RunWithRetrials(cfg RetrialConfig) (*RetrialResult, error) {
	if cfg.Graph == nil || cfg.Policy == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("sim: incomplete config")
	}
	if cfg.RetryProbability < 0 || cfg.RetryProbability > 1 {
		return nil, fmt.Errorf("sim: retry probability %v", cfg.RetryProbability)
	}
	if cfg.MeanBackoff <= 0 {
		cfg.MeanBackoff = 0.1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	horizon, err := cfg.window(cfg.Trace.Horizon)
	if err != nil {
		return nil, err
	}

	st := NewState(cfg.Graph)
	res := &RetrialResult{Result: Result{
		Policy:         cfg.Policy.Name(),
		PerPairOffered: make(map[[2]graph.NodeID]int64),
		PerPairBlocked: make(map[[2]graph.NodeID]int64),
		LostAtLink:     make([]int64, cfg.Graph.NumLinks()),
		LinkTimeUtil:   make([]float64, cfg.Graph.NumLinks()),
	}}
	rng := xrand.New(cfg.Seed, 271828)

	events := &retrialHeap{}
	heap.Init(events)
	var seq int64
	push := func(e retrialEvent) {
		seq++
		e.seq = seq
		heap.Push(events, e)
	}
	for _, c := range cfg.Trace.Calls {
		if err := c.Check(cfg.Graph.NumNodes()); err != nil {
			return nil, err
		}
		if c.Arrival >= horizon {
			break
		}
		push(retrialEvent{at: c.Arrival, call: c})
	}
	// Active call paths for releases (index-addressed to keep events small).
	var activePaths []paths.Path

	measured := func(c Call) bool { return c.Arrival >= cfg.Warmup && c.Arrival < horizon }

	util := occupancyIntegral{st: st, util: res.LinkTimeUtil, warmup: cfg.Warmup, horizon: horizon}
	for events.Len() > 0 {
		e := heap.Pop(events).(retrialEvent)
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
		// The routing decision uses the retry epoch's state; the Call keeps
		// its original arrival time for measurement bucketing.
		decision := c
		decision.Arrival = e.at
		p, alternate, ok := cfg.Policy.Route(st, decision)
		if ok {
			st.Occupy(p)
			activePaths = append(activePaths, p)
			push(retrialEvent{at: e.at + c.Holding, release: true, path: len(activePaths) - 1})
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
		// Blocked attempt: maybe retry.
		if e.attempt+1 < cfg.MaxAttempts && rng.Float64() < cfg.RetryProbability {
			backoff := xrand.Exp(rng, cfg.MeanBackoff)
			if e.at+backoff < horizon {
				push(retrialEvent{at: e.at + backoff, call: c, attempt: e.attempt + 1})
				continue
			}
		}
		// Definitively lost.
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
	return res, nil
}
