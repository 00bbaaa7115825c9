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
// means the policy cannot be compiled and Run keeps the interpreted
// engine. Run re-invokes CompileRoutes after every failure/repair epoch,
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
// which engine a configuration exercises; Run itself applies the same
// check and falls back transparently.
func CompilesFor(p Policy, g *graph.Graph) bool {
	var th routetable.Thresholds
	return compileFor(p, NewState(g), &th)
}

// arrivalBatch is the micro-batch span: how many consecutive arrivals the
// compiled loop pulls from the source before re-entering the per-call
// admission scan. Departure and plan epochs are still honored exactly —
// each arrival checks the next pending epoch against two scalars before
// touching the heap — so batching changes memory traffic, not semantics.
const arrivalBatch = 256

// nextEpochs returns the earliest pending departure and plan epochs
// (+Inf when none), the scalar guards the compiled loop compares each
// arrival against instead of re-reading the heap.
func (l *loop) nextEpochs() (dep, plan float64) {
	dep, plan = math.Inf(1), math.Inf(1)
	if l.deps.len() > 0 {
		dep = l.deps.ents[0].at
	}
	if l.pi < len(l.plan) {
		plan = l.plan[l.pi].Epoch
	}
	return dep, plan
}

// admitOne performs one arrival's compiled admission: the shared kernel
// (routetable.Thresholds.Decide) picks the row, and admitOne books it —
// each hop's occupancy integral flushed at the arrival epoch, then
// incremented — or attributes the loss to the primary's first blocking
// link. It reports whether the call was carried. runCompiled calls it once
// per arrival.
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

// runCompiled is the fast engine: arrivals are consumed in micro-batches
// and admitted by admitOne against thresholds bound by compileFor. Every
// decision — primary selection (including the bifurcated weighted draw),
// alternate order, first-blocking-link loss attribution, tie-breaks
// against departures and plan events — reproduces the interpreted engine
// bit for bit.
//
//altlint:hotpath
func (l *loop) runCompiled(th *routetable.Thresholds) {
	// compiled gates the kernel. It drops to false only if a mid-run
	// recompile fails (a TopologyHook swapped in an incompilable or
	// mismatched table), after which arrivals route through Policy.Route —
	// same decisions, interpreted speed.
	compiled := true
	l.deps.base = th.Table().Links
	nextDep, nextPlan := l.nextEpochs()

	var calls []Call // trace replay: iterated in place, no cursor
	var buf []Call   // stream mode: reusable refill buffer
	idx := 0
	if l.cfg.Trace != nil {
		calls = l.cfg.Trace.Calls
	} else {
		buf = make([]Call, 0, arrivalBatch)
	}

	for {
		var batch []Call
		if l.cfg.Trace != nil {
			if idx >= len(calls) {
				return
			}
			hi := idx + arrivalBatch
			if hi > len(calls) {
				hi = len(calls)
			}
			batch = calls[idx:hi]
			idx = hi
		} else {
			buf = buf[:0]
			for len(buf) < arrivalBatch {
				c, more := l.cfg.Source.Next()
				if !more {
					break
				}
				buf = append(buf, c)
				if c.Arrival >= l.horizon {
					// Stop refilling at the first out-of-horizon arrival so
					// the source is consumed exactly as far as the
					// interpreted loop would.
					break
				}
			}
			if len(buf) == 0 {
				return
			}
			batch = buf
		}

		for _, c := range batch {
			if c.Arrival >= l.horizon {
				return
			}
			if nextDep <= c.Arrival || nextPlan <= c.Arrival {
				piBefore := l.pi
				l.drainTo(c.Arrival)
				if l.pi != piBefore {
					// A plan group ran: link states changed and a
					// TopologyHook may have swapped tables. Recompile
					// against the degraded topology.
					if compiled = compileFor(l.cfg.Policy, l.st, th); compiled {
						l.deps.base = th.Table().Links
					}
				}
				nextDep, nextPlan = l.nextEpochs()
			}
			pairIdx := int(c.Origin)*l.numNodes + int(c.Dest)
			measured, win := l.offered(c, pairIdx)

			if !compiled {
				// Mid-run recompile failed; identical decisions via Route.
				if p, alternate, ok := l.cfg.Policy.Route(l.st, c); ok {
					l.flushPath(p, c.Arrival)
					l.st.Occupy(p)
					l.admitted(c, p, alternate, measured)
					if dep := c.Arrival + c.Holding; dep < nextDep {
						nextDep = dep
					}
					continue
				}
				blockAt := graph.InvalidLink
				if measured {
					primary := l.cfg.Policy.PrimaryPath(l.st, c)
					if admitted, blockLink := l.st.PathAdmitsPrimary(primary); !admitted && blockLink != graph.InvalidLink {
						blockAt = blockLink
					}
				}
				l.blocked(c, pairIdx, measured, win, blockAt)
				continue
			}

			if l.admitOne(th, c, pairIdx, measured, win) {
				if dep := c.Arrival + c.Holding; dep < nextDep {
					nextDep = dep
				}
			}
		}
	}
}
