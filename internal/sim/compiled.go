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
