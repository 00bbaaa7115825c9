package sim

import (
	"fmt"
	"math"

	"repro/internal/calendar"
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

// RunWithRetrials replays the trace with blocked-call retrials. Arrivals
// are read from the trace in order; the calendar queue holds only the
// events in flight — departures (a pooled path, Ref < 0) and pending
// retries (trace index Ref, attempt N). Queued events strictly before an
// arrival run first, and equal epochs pop in push order, so every event
// runs in (epoch, arrival-before-queued, push) order. Each attempt is
// admitted through Run's Route path (loop.routeCall); calls are counted,
// links' occupancy integrated and the run closed by Run's accounting.
func RunWithRetrials(cfg RetrialConfig) (*RetrialResult, error) {
	horizon, err := cfg.setUp("retrial")
	if err != nil {
		return nil, err
	}
	if !(cfg.RetryProbability >= 0 && cfg.RetryProbability <= 1) {
		return nil, fmt.Errorf("sim: retry probability %v outside [0, 1]", cfg.RetryProbability)
	}
	if math.IsNaN(cfg.MeanBackoff) || math.IsInf(cfg.MeanBackoff, 1) {
		return nil, fmt.Errorf("sim: mean back-off %v must be finite", cfg.MeanBackoff)
	}
	if cfg.MeanBackoff <= 0 {
		cfg.MeanBackoff = 0.1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 10
	}
	// Attempts are counted in the queue entry's int32.
	cfg.MaxAttempts = min(cfg.MaxAttempts, math.MaxInt32)
	calls := cfg.Trace.Calls

	res := &RetrialResult{}
	// Retries are only scheduled before the horizon, and a departure past
	// it reaches no counter, so the queue keeps nothing later.
	var l loop
	l.init(cfg.Config, &res.Result, horizon, nil)
	q := &l.deps
	rng := xrand.New(cfg.Seed, 271828)
	var n tally

	// try offers call i's attempt k at epoch now.
	try := func(now float64, i, k int32) {
		c := calls[i]
		measured := c.Arrival >= cfg.Warmup
		if measured && k == 0 {
			l.offer(&n, &c)
		}
		if measured && k > 0 {
			res.Retries++
		}
		// The routing decision uses the retry epoch's state; the Call keeps
		// its original arrival time for measurement bucketing.
		decision := c
		decision.Arrival = now
		// A blocked attempt's loss is attributed only once it is
		// definitive, so routeCall is not asked for it.
		p, alternate, ok, _ := l.routeCall(&decision, false)
		if ok {
			if measured {
				n.admit(len(p), alternate)
				if k > 0 {
					res.RetrySuccesses++
				}
			}
			return
		}
		// Blocked attempt: maybe retry.
		if int(k)+1 < cfg.MaxAttempts && rng.Float64() < cfg.RetryProbability {
			backoff := xrand.Exp(rng, cfg.MeanBackoff)
			if now+backoff < horizon {
				q.cal.Insert(calendar.Entry{At: now + backoff, Ref: i, N: k + 1})
				return
			}
		}
		// Definitively lost.
		if measured {
			l.block(&n, &c, l.lossLink(&decision))
		}
	}
	// drain runs every queued event at or before epoch.
	drain := func(epoch float64) {
		for {
			e, ok := q.cal.PopTo(epoch)
			if !ok {
				return
			}
			if e.Ref < 0 {
				l.departed(e.At, q.release(e))
			} else {
				try(e.At, e.Ref, e.N)
			}
		}
	}
	for i, c := range calls {
		if err := c.Check(l.numNodes); err != nil {
			return nil, err
		}
		if c.Arrival >= horizon {
			break
		}
		drain(math.Nextafter(c.Arrival, math.Inf(-1)))
		try(c.Arrival, int32(i), 0)
	}
	drain(horizon)
	n.addTo(&res.Result)
	l.close()
	return res, nil
}
