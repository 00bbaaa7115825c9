package sim

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routetable"
)

// TableCompiler is implemented by policies whose routing decision is fully
// described by a static route table plus per-link protection levels — the
// table-driven single-path, uncontrolled, controlled, and tiered schemes.
// Run executes such policies on a compiled fast path: flattened route rows
// (internal/routetable) scanned against precomputed occupancy thresholds,
// bit-identical to calling Route per arrival.
//
// CompileRoutes returns the policy's current compiled table; ok=false
// means the policy cannot be compiled and Run admits through Policy.Route
// instead. Run re-invokes CompileRoutes after every failure/repair epoch,
// so a policy whose tables are swapped mid-run by a Config.TopologyHook
// (policy.Dynamic under core.AdaptiveScheme) stays compiled across swaps.
type TableCompiler interface {
	Policy
	CompileRoutes() (*routetable.Compiled, bool)
}

// compileFor resolves the compiled fast path for a policy and binds th to
// it over the state: the policy must implement TableCompiler, compile
// successfully, and its table must fit the state's topology (State.Bind).
func compileFor(p Policy, st *State, th *routetable.Thresholds) bool {
	tc, ok := p.(TableCompiler)
	if !ok {
		return false
	}
	comp, ok := tc.CompileRoutes()
	return ok && st.Bind(th, comp)
}

// CompilesFor reports whether Run would execute the policy on the compiled
// fast path over this topology. It exists so equivalence tests can assert
// which admission path a configuration exercises; Run itself applies the
// same check and falls back to Policy.Route transparently.
func CompilesFor(p Policy, g *graph.Graph) bool {
	var th routetable.Thresholds
	return compileFor(p, NewState(g), &th)
}

// nextEpochs returns the earliest pending departure and plan epochs
// (+Inf when none), the scalar guards the event loop compares each
// arrival against instead of re-reading the queue.
func (l *loop) nextEpochs() (dep, plan float64) {
	dep, plan = l.deps.cal.Next(), math.Inf(1)
	if l.pi < len(l.plan) {
		plan = l.plan[l.pi].Epoch
	}
	return dep, plan
}

// admitOne performs one arrival's compiled admission: the shared kernel
// (routetable.Thresholds.Decide) picks the row, and admitOne books it —
// each hop's occupancy integral flushed at the arrival epoch, then
// incremented — or attributes the loss to the primary's first blocking
// link. It reports whether the call was carried. loop.run calls it once
// per arrival while the policy is compiled.
//
//altlint:hotpath
func (l *loop) admitOne(th *routetable.Thresholds, c Call, pairIdx int, measured bool, win *WindowStats) bool {
	f := th.Table()
	pair := -1
	if uint(int(c.Origin)) < uint(f.NumNodes) && uint(int(c.Dest)) < uint(f.NumNodes) {
		pair = pairIdx
	}
	prim, row, blockIdx := th.Decide(l.occ, pair, int64(c.ID))
	if prim == routetable.NoRow {
		// No primaries for the pair: the source table would yield the
		// empty path, which every state admits as a zero-hop primary. Book
		// nothing, carry the call.
		l.admittedRow(c, 0, 0, false, measured)
		return true
	}
	if row == routetable.NoRow {
		blockAt := graph.InvalidLink
		if measured {
			blockAt = f.Links[f.RowOff[prim]+int32(blockIdx)]
		}
		l.blocked(c, pairIdx, measured, win, blockAt)
		return false
	}
	// The scan just proved occ <= C−1 on every (up) hop, so the direct
	// increments cannot overbook; down links never pass (threshold −1).
	// Each hop is flushed at the arrival epoch before its increment —
	// flushLink with the horizon clip elided (the arrival is inside the
	// horizon), bit-identical to the general form.
	occ := l.occ
	util := l.util[:len(occ)]
	last := l.last[:len(occ)]
	warm := l.cfg.Warmup
	off, end := f.RowOff[row], f.RowOff[row+1]
	for _, id := range f.Links[off:end] {
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
	l.admittedRow(c, off, end-off, row != prim, measured)
	return true
}
