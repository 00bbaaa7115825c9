package ctrl

import (
	"errors"
	"fmt"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/routetable"
	"repro/internal/sim"
)

// Typed ingest errors. The engine is fed by untrusted clients, so every
// malformed request maps to a sentinel the wire layer can report (and the
// metrics count) instead of a panic.
var (
	// ErrDuplicateCall rejects an admit whose call id is already in flight.
	ErrDuplicateCall = errors.New("ctrl: duplicate call id")
	// ErrUnknownCall rejects a release for an id not in flight — a
	// double-release lands here after the first release retired the id.
	ErrUnknownCall = errors.New("ctrl: unknown call id")
	// ErrBadNode rejects an admit whose origin or destination is outside
	// the topology (or origin == destination).
	ErrBadNode = errors.New("ctrl: invalid origin/destination")
	// ErrNotCompiled refuses an admit while the policy's table does not
	// compile for the live topology (the last Recompile failed): the
	// engine never decides against stale thresholds.
	ErrNotCompiled = errors.New("ctrl: policy table does not compile")
)

// Decision is the outcome of one admission.
type Decision struct {
	CallID    int64
	Admitted  bool
	Alternate bool
	// Links is the booked path (a row of the compiled table; empty for a
	// zero-hop carry). Valid until the call is released.
	Links []graph.LinkID
	// BlockedAt is the first blocking link of the primary path when the
	// call was lost (the paper's loss-attribution convention), else
	// graph.InvalidLink.
	BlockedAt graph.LinkID
}

// Metrics is a snapshot of the engine's decision counters.
type Metrics struct {
	Offered  uint64 `json:"offered"`
	Admitted uint64 `json:"admitted"`
	Blocked  uint64 `json:"blocked"`
	Released uint64 `json:"released"`
	// DuplicateAdmits / UnknownReleases count rejected requests (the
	// latter includes double-releases); ReleaseIdle counts
	// sim.TryRelease refusals — nonzero means occupancy bookkeeping
	// disagreed with the inflight map, which should never happen.
	DuplicateAdmits uint64 `json:"duplicate_admits"`
	UnknownReleases uint64 `json:"unknown_releases"`
	ReleaseIdle     uint64 `json:"release_idle"`
	// Recompiles counts threshold rebuilds (topology + estimate epochs).
	Recompiles uint64 `json:"recompiles"`
	InFlight   int    `json:"in_flight"`
}

// Engine applies admission and release decisions against a live sim.State
// through a compiled route table and the admission kernel sim.Run shares
// (routetable.Thresholds, read through sim.State.Decide), so a
// request trace replayed through the engine makes bit-identical decisions
// to an offline sim.Run of the equivalent arrival trace. The engine owns
// only its booking: the in-flight map, the estimator feed, and the
// metrics. It is NOT safe for concurrent use — the Server serializes all
// access through its decision loop.
type Engine struct {
	g  *graph.Graph
	st *sim.State
	tc sim.TableCompiler
	// est, when non-nil, observes every primary set-up the engine decides
	// (the live Λ̂ feedback loop); nil disables estimation entirely.
	est *estimate.Estimator

	// th is the admission kernel bound to st, rebuilt on every
	// Recompile; compiled reports whether the last Recompile bound it.
	th       routetable.Thresholds
	compiled bool

	// inflight maps call id → booked row. Rows alias the compiled table's
	// immutable Links array (never mutated, never freed while referenced),
	// so no per-call copy is needed.
	inflight map[int64][]graph.LinkID

	m Metrics
}

// NewEngine binds a decision engine to a topology, a live state over it
// (nil for all-idle), a compilable policy, and an optional estimator. The
// policy's table must compile for the topology — a daemon must fail loudly
// at startup rather than come up unable to admit.
func NewEngine(g *graph.Graph, st *sim.State, tc sim.TableCompiler, est *estimate.Estimator) (*Engine, error) {
	if g == nil || tc == nil {
		return nil, fmt.Errorf("ctrl: nil graph or policy")
	}
	if st == nil {
		st = sim.NewState(g)
	}
	e := &Engine{g: g, st: st, tc: tc, est: est, inflight: make(map[int64][]graph.LinkID)}
	if !e.Recompile() {
		return nil, fmt.Errorf("ctrl: policy %q does not compile for this topology", tc.Name())
	}
	return e, nil
}

// State exposes the live network state (for status snapshots and the
// adaptive scheme's rederivation; callers must not mutate it outside the
// server's decision loop).
func (e *Engine) State() *sim.State { return e.st }

// Metrics returns a snapshot of the decision counters.
func (e *Engine) Metrics() Metrics {
	m := e.m
	m.InFlight = len(e.inflight)
	return m
}

// Recompile re-resolves the policy's compiled table and rebuilds every
// threshold set from the state's current capacities and down flags — the
// same rebuild sim.Run performs at failure/repair epochs. It reports
// whether the thresholds are bound; on failure Admit returns
// ErrNotCompiled until a later Recompile succeeds (releases still work).
func (e *Engine) Recompile() bool {
	e.m.Recompiles++
	comp, ok := e.tc.CompileRoutes()
	e.compiled = ok && e.st.Bind(&e.th, comp)
	return e.compiled
}

// SetLinkDown applies a link-down/link-up notification to the live state
// and rebuilds the thresholds, exactly as sim.Run does at failure
// epochs. Calls in flight over a failing link stay booked (their
// release keeps the accounting consistent, mirroring sim.State's
// release-down-links rule).
func (e *Engine) SetLinkDown(id graph.LinkID, down bool) {
	e.st.SetLinkDown(id, down)
	e.Recompile()
}

// Admit decides one call. now is the decision timestamp fed to the
// estimator; callID must be unique among calls in flight (it keys the
// later release) and drives the bifurcated-primary draw, so a replayed
// trace must present the original call ids.
func (e *Engine) Admit(now float64, callID int64, origin, dest graph.NodeID) (Decision, error) {
	if o, d := int(origin), int(dest); o < 0 || d < 0 || o >= e.g.NumNodes() || d >= e.g.NumNodes() || o == d {
		return Decision{CallID: callID}, fmt.Errorf("%w: %d→%d", ErrBadNode, origin, dest)
	}
	if _, dup := e.inflight[callID]; dup {
		e.m.DuplicateAdmits++
		return Decision{CallID: callID}, fmt.Errorf("%w: %d", ErrDuplicateCall, callID)
	}
	if !e.compiled {
		return Decision{CallID: callID}, ErrNotCompiled
	}
	e.m.Offered++

	f := e.th.Table()
	prim, row, blockIdx := e.st.Decide(&e.th, int(origin)*f.NumNodes+int(dest), callID)
	if prim == routetable.NoRow {
		// No primaries for the pair: the source table yields the empty
		// path, which every state admits as a zero-hop carry (nothing
		// booked) — identical to the simulator's empty-suite rule.
		e.inflight[callID] = nil
		e.m.Admitted++
		if e.est != nil {
			e.est.Advance(now)
		}
		return Decision{CallID: callID, Admitted: true, BlockedAt: graph.InvalidLink}, nil
	}
	primLinks := f.Row(prim)
	blockedAt := graph.InvalidLink
	if blockIdx >= 0 {
		blockedAt = primLinks[blockIdx]
	}
	if e.est != nil {
		// Per the paper's convention the set-up packet is observed by each
		// link up to and including the first blocking one, whatever the
		// alternates then decide.
		e.est.ObserveSetup(now, paths.Path{Links: primLinks}, blockedAt)
	}
	if row == routetable.NoRow {
		e.m.Blocked++
		return Decision{CallID: callID, BlockedAt: blockedAt}, nil
	}
	// The scan just proved every hop admits, so Occupy cannot panic; the
	// row is remembered for the release.
	links := f.Row(row)
	e.st.Occupy(paths.Path{Links: links})
	e.inflight[callID] = links
	e.m.Admitted++
	return Decision{CallID: callID, Admitted: true, Alternate: row != prim, Links: links, BlockedAt: graph.InvalidLink}, nil
}

// Release retires a call and frees its booked path. A release for an
// unknown id — including the second half of a double-release — returns
// ErrUnknownCall and touches nothing; the non-panicking sim.TryRelease
// guards the state itself, so even a bookkeeping bug cannot crash the
// daemon or drive occupancy negative.
func (e *Engine) Release(callID int64) error {
	links, ok := e.inflight[callID]
	if !ok {
		e.m.UnknownReleases++
		return fmt.Errorf("%w: %d", ErrUnknownCall, callID)
	}
	delete(e.inflight, callID)
	if len(links) > 0 {
		if err := e.st.TryRelease(paths.Path{Links: links}); err != nil {
			e.m.ReleaseIdle++
			return err
		}
	}
	e.m.Released++
	return nil
}
