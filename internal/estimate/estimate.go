// Package estimate implements online estimation of the per-link primary
// traffic demand Λ^k, which the paper assumes known a priori in its
// simulations but describes as estimable "from the primary call set-ups that
// fly past the link" (§1). Each link maintains a windowed count of primary
// set-up observations smoothed by an exponentially weighted moving average,
// and the protection level is re-derived from the running estimate.
//
// Estimating from observed set-ups measures the *thinned* primary intensity
// ν^k <= Λ^k (upstream-blocked set-ups never reach the link). Theorem 1
// bounds the loss via ν before relaxing to Λ, so protection levels derived
// from the estimate remain sound — they are simply less conservative, which
// is the robustness property the paper leans on (§4, citing Key).
package estimate

import (
	"fmt"
	"math"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/sim"
)

// Estimator tracks per-link primary demand online.
type Estimator struct {
	g *graph.Graph
	// Window is the averaging window length in holding times (default 5).
	Window float64
	// Alpha is the EWMA smoothing weight applied per window (default 0.3).
	Alpha float64

	counts    []float64 // set-ups observed in the current window
	estimates []float64 // smoothed Erlang estimates
	primed    []bool    // whether a link has completed one window
	windowEnd float64
	lastNow   float64 // high-water mark of observed timestamps
	// regressions counts clock anomalies the estimator refused to act on:
	// NaN/±Inf timestamps and timestamps behind lastNow. A live daemon feeds
	// wall-ordered observations, so these are expected occasionally and must
	// be ignored-with-a-counter, not fold into the wrong window.
	regressions uint64
}

// New returns an estimator for the graph. Initial estimates are zero; use
// Prime to start from a prior (e.g. engineering forecasts).
func New(g *graph.Graph, window, alpha float64) (*Estimator, error) {
	if window <= 0 {
		window = 5
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	if g == nil {
		return nil, fmt.Errorf("estimate: nil graph")
	}
	return &Estimator{
		g:         g,
		Window:    window,
		Alpha:     alpha,
		counts:    make([]float64, g.NumLinks()),
		estimates: make([]float64, g.NumLinks()),
		primed:    make([]bool, g.NumLinks()),
		windowEnd: window,
	}, nil
}

// ObserveSetup records a primary call set-up traversing the path at the
// given time. Per the paper's convention, the set-up packet travels link by
// link until it is first blocked, so each link up to and including the first
// blocking link observes one set-up; blockedAt == graph.InvalidLink means
// the set-up traversed the whole path.
func (e *Estimator) ObserveSetup(now float64, p paths.Path, blockedAt graph.LinkID) {
	e.roll(now)
	for _, id := range p.Links {
		e.counts[id]++
		if id == blockedAt {
			break
		}
	}
}

// rollCap bounds how many windows a single roll may fold. After this many
// empty folds every estimate has decayed to numerically zero for any valid
// Alpha, so a larger gap is closed with one O(1) jump of the window clock
// instead of billions of no-op folds (which would stall the daemon's tick
// loop on a large timestamp jump).
const rollCap = 1 << 16

// roll closes any windows that have elapsed by now, folding their counts
// into the EWMA estimates. It assumes nothing about the caller's clock: a
// NaN, ±Inf, or regressing timestamp is ignored (counted in Regressions)
// rather than corrupting or double-rolling the window, and an arbitrarily
// large forward jump terminates. For monotone finite timestamps the fold
// sequence is bit-identical to the naive loop.
func (e *Estimator) roll(now float64) {
	if math.IsNaN(now) || math.IsInf(now, 0) || now < e.lastNow {
		e.regressions++
		return
	}
	e.lastNow = now
	for folds := 0; now >= e.windowEnd; folds++ {
		if folds >= rollCap {
			// After rollCap empty folds the per-window decay has driven
			// every estimate to (numerically) zero for any Alpha New
			// accepts; realign the window clock past the gap.
			e.windowEnd = now + e.Window
			break
		}
		for id := range e.counts {
			rate := e.counts[id] / e.Window
			if e.primed[id] {
				e.estimates[id] = (1-e.Alpha)*e.estimates[id] + e.Alpha*rate
			} else {
				e.estimates[id] = rate
				e.primed[id] = true
			}
			e.counts[id] = 0
		}
		e.windowEnd += e.Window
	}
}

// Advance rolls the window clock forward to now without recording any
// set-up; the daemon's tick loop calls it so estimates decay during idle
// periods. Clock anomalies are ignored and counted, as in roll.
func (e *Estimator) Advance(now float64) { e.roll(now) }

// Regressions reports how many observations carried an unusable timestamp
// (NaN, ±Inf, or behind the high-water mark) and were ignored.
func (e *Estimator) Regressions() uint64 { return e.regressions }

// Estimate returns the current smoothed Λ̂ for the link.
func (e *Estimator) Estimate(id graph.LinkID) float64 { return e.estimates[id] }

// Estimates returns a copy of all current estimates.
func (e *Estimator) Estimates() []float64 {
	return append([]float64(nil), e.estimates...)
}

// AdaptiveControlled is a sim.Policy: controlled alternate routing whose
// protection levels are re-derived from online demand estimates instead of
// an a-priori Λ. It wraps the shared route table; the estimator observes
// every primary set-up the policy handles.
type AdaptiveControlled struct {
	// Inner supplies routes (primary + alternates) and H; protection comes
	// from the estimator.
	Table routeTable
	Est   *Estimator
	// Refresh is how often (in time units) protection levels are recomputed
	// from the estimates (default: every estimator window).
	Refresh float64

	h           int
	r           []int
	nextRefresh float64
}

// routeTable is the subset of policy.Table the adaptive policy needs;
// accepting an interface avoids an import cycle and eases testing.
type routeTable interface {
	SelectPrimary(c sim.Call) paths.Path
	AlternatesOf(c sim.Call) []paths.Path
	MaxHops() int
}

// NewAdaptiveControlled builds the adaptive policy.
func NewAdaptiveControlled(t routeTable, est *Estimator, refresh float64) (*AdaptiveControlled, error) {
	if t == nil || est == nil {
		return nil, fmt.Errorf("estimate: nil table or estimator")
	}
	if refresh <= 0 {
		refresh = est.Window
	}
	return &AdaptiveControlled{
		Table:   t,
		Est:     est,
		Refresh: refresh,
		h:       t.MaxHops(),
		r:       make([]int, len(est.estimates)),
	}, nil
}

// Name implements sim.Policy.
func (a *AdaptiveControlled) Name() string { return "controlled-adaptive" }

// PrimaryPath implements sim.Policy.
func (a *AdaptiveControlled) PrimaryPath(_ *sim.State, c sim.Call) paths.Path {
	return a.Table.SelectPrimary(c)
}

// Route implements sim.Policy: identical to Controlled, but protection
// levels refresh from the estimator and every primary set-up is observed.
func (a *AdaptiveControlled) Route(s *sim.State, c sim.Call) (paths.Path, bool, bool) {
	if c.Arrival >= a.nextRefresh {
		a.refresh(c.Arrival, s)
	}
	prim := a.Table.SelectPrimary(c)
	ok, blockedAt := s.PathAdmitsPrimary(prim)
	a.Est.ObserveSetup(c.Arrival, prim, blockedAt)
	if ok {
		return prim, false, true
	}
	for _, alt := range a.Table.AlternatesOf(c) {
		if altOK, _ := s.PathAdmitsAlternate(alt, a.r); altOK {
			return alt, true, true
		}
	}
	return paths.Path{}, false, false
}

func (a *AdaptiveControlled) refresh(now float64, s *sim.State) {
	// A non-finite clock would spin the catch-up loop below forever; the
	// estimator already refuses such timestamps, so refuse them here too.
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return
	}
	a.Est.roll(now)
	g := s.Graph()
	for id := range a.r {
		a.r[id] = erlang.ProtectionLevel(a.Est.Estimate(graph.LinkID(id)),
			g.Link(graph.LinkID(id)).Capacity, a.h)
	}
	for steps := 0; now >= a.nextRefresh; steps++ {
		if steps >= rollCap {
			// Same large-gap escape as roll: realign instead of stepping
			// through an astronomic number of missed refresh epochs.
			a.nextRefresh = now + a.Refresh
			break
		}
		a.nextRefresh += a.Refresh
	}
}

// Protection returns the current protection levels (for inspection).
func (a *AdaptiveControlled) Protection() []int {
	return append([]int(nil), a.r...)
}
