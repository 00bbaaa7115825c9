// Package bound computes the Erlang Bound of §4: a lower bound on the
// overall network blocking probability of *any* routing scheme (even with
// re-packing), obtained by maximizing a two-term cut expression over all
// bipartitions of the node set.
//
// For a cut (S, S̄) the expression charges the traffic crossing the cut in
// each direction with the Erlang-B blocking of a single pooled link whose
// capacity is the total crossing capacity:
//
//	T(S→S̄)/T_tot · B(T(S→S̄), C(S→S̄)) + T(S̄→S)/T_tot · B(T(S̄→S), C(S̄→S))
//
// and the bound is the maximum over all cuts. The expression is symmetric
// in (S, S̄), so the 2^(N−1)−1 cuts with node 0 in S cover every
// bipartition (graph.ForEachCut).
//
// Most cuts cannot win. Before paying for a cut's two O(C) Erlang-B
// recursions, ErlangBound evaluates a cheap certified upper bound on the
// cut's value and skips the cut when that bound, widened by a rounding
// margin, is strictly below the best value so far. A skipped cut could
// neither beat nor tie the maximum, so the result — value, cut, crossing
// traffic and capacities, down to the float bits — equals that of
// evaluating every cut exactly.
package bound

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// Result reports the Erlang bound and the cut achieving it.
type Result struct {
	// Blocking is the lower bound on overall network blocking.
	Blocking float64
	// Cut is the maximizing bipartition.
	Cut graph.Cut
	// ForwardTraffic/BackwardTraffic are the crossing offered loads of the
	// maximizing cut (Erlangs); ForwardCapacity/BackwardCapacity the pooled
	// crossing capacities.
	ForwardTraffic, BackwardTraffic   float64
	ForwardCapacity, BackwardCapacity int
}

// pair is one ordered node pair's offered load and total up capacity.
type pair struct {
	demand   float64
	capacity int
}

// ErlangBound evaluates the bound for the graph and traffic matrix. The
// result equals exact evaluation of all 2^(N−1)−1 bipartitions, the first
// maximizer in graph.ForEachCut order; cuts that provably score below the
// best so far skip the Erlang-B evaluation. It returns an error for empty
// or non-finite total traffic and for graphs larger than the enumeration
// limit.
func ErlangBound(g *graph.Graph, m *traffic.Matrix) (Result, error) {
	n := g.NumNodes()
	if n != m.Size() {
		return Result{}, fmt.Errorf("bound: matrix size %d for %d nodes", m.Size(), n)
	}
	if n > 30 {
		return Result{}, fmt.Errorf("bound: exact enumeration limited to 30 nodes (got %d)", n)
	}
	total := m.Total()
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return Result{}, fmt.Errorf("bound: total offered traffic %v is not finite", total)
	}
	if total <= 0 {
		return Result{}, fmt.Errorf("bound: no offered traffic")
	}
	// pairs[i*n+j] holds T(i,j) and the up capacity i→j, so one pass over
	// the pairs crossing a cut yields its traffic and capacity both ways.
	pairs := make([]pair, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pairs[i*n+j].demand = m.Demand(graph.NodeID(i), graph.NodeID(j))
		}
	}
	for _, l := range g.LinkView() {
		if !l.Down {
			pairs[int(l.From)*n+int(l.To)].capacity += l.Capacity
		}
	}
	all := uint64(1)<<uint(n) - 1
	best := Result{Blocking: -1}
	g.ForEachCut(func(c graph.Cut) bool {
		// Each traffic sum adds its entries in row-major (i, j) order, so it
		// has the same bits as a sum over the nonzero demands alone: adding
		// a zero is exact. Each sum is also at most total, which is finite.
		in, out := c.Mask, all&^c.Mask
		var fwdT, bwdT float64
		var fwdC, bwdC int
		for i := 0; i < n; i++ {
			row := pairs[i*n : i*n+n]
			if in&(1<<uint(i)) != 0 {
				for s := out; s != 0; s &= s - 1 {
					p := &row[bits.TrailingZeros64(s)]
					fwdT += p.demand
					fwdC += p.capacity
				}
			} else {
				for s := in; s != 0; s &= s - 1 {
					p := &row[bits.TrailingZeros64(s)]
					bwdT += p.demand
					bwdC += p.capacity
				}
			}
		}
		if cannotWin(fwdT, bwdT, total, fwdC, bwdC, best.Blocking) {
			return true
		}
		val := 0.0
		if fwdT > 0 {
			val += fwdT / total * erlang.B(fwdT, fwdC)
		}
		if bwdT > 0 {
			val += bwdT / total * erlang.B(bwdT, bwdC)
		}
		if val > best.Blocking {
			best = Result{
				Blocking:        val,
				Cut:             c,
				ForwardTraffic:  fwdT,
				BackwardTraffic: bwdT,
				ForwardCapacity: fwdC, BackwardCapacity: bwdC,
			}
		}
		return true
	})
	if best.Blocking < 0 {
		best.Blocking = 0
	}
	return best, nil
}

// The prune compares a computed upper bound u on a cut's value with the
// best value so far, and skips the cut only when u·(1+pruneMargin) < best.
// The exact path computes each direction's loss by erlang.B's forward
// recursion, whose relative error grows by at most 4·2⁻⁵³ per circuit:
// a step carries a relative error e in B(T, c−1) into at most e in
// B(T, c), since ∂ln B(T,c)/∂ln B(T,c−1) = c/(c+T·B) ≤ 1, and its own
// three roundings add at most 4·2⁻⁵³. lossUpper's partial sum of at most
// pruneTerms+1 positive terms is off by at most 4(pruneTerms+1)·2⁻⁵³, and
// the shares and the two-term sum add a few roundings more. So the exact
// path's value is at most the computed u times
// 1 + (4C + 4·pruneTerms + 16)·2⁻⁵³, below 1 + pruneMargin for every
// crossing capacity C ≤ pruneMaxCapacity; a cut with a larger one is never
// skipped. That relative argument needs normal floats: where a loss or a
// partial sum leaves the normal range the absolute error stays below
// 2⁻¹⁰⁰⁰, far under pruneMargin·best once best exceeds pruneFloor, and no
// cut is skipped below it.
const (
	pruneMargin      = 1e-6
	pruneMaxCapacity = 1 << 30
	pruneFloor       = 0x1p-900
	pruneTerms       = 64
)

// cannotWin reports whether a cut with crossing loads fwdT, bwdT (of total)
// and crossing capacities fwdC, bwdC provably scores strictly below best,
// so that evaluating it exactly could neither beat nor tie best.
func cannotWin(fwdT, bwdT, total float64, fwdC, bwdC int, best float64) bool {
	if best <= pruneFloor || max(fwdC, bwdC) > pruneMaxCapacity {
		return false
	}
	// limit only sets where lossUpper may stop summing; the certificate is
	// the final comparison.
	limit := best / (1 + pruneMargin)
	u := 0.0
	if fwdT > 0 {
		share := fwdT / total
		u = share * lossUpper(fwdT, fwdC, limit/(2*share))
	}
	if bwdT > 0 {
		if u >= limit {
			return false
		}
		share := bwdT / total
		u += share * lossUpper(bwdT, bwdC, (limit-u)/share)
	}
	return u*(1+pruneMargin) < best
}

// lossUpper returns an upper bound on erlang.B(t, c) for t > 0. Dividing
// the Erlang-B denominator Σ_{k≤c} t^k/k! by its top term gives
//
//	1/B(t, c) = Σ_{i=0..c} Π_{l<i} (c−l)/t,
//
// a sum of positive terms, so the reciprocal of any partial sum bounds B
// from above. lossUpper sums at most pruneTerms+1 terms and stops once the
// bound is at most stop. c = 0 gives exactly 1.
func lossUpper(t float64, c int, stop float64) float64 {
	inv := 1 / t
	sum, term := 1.0, 1.0
	for l := 0; l < min(c, pruneTerms) && sum*stop < 1; l++ {
		term *= float64(c-l) * inv
		sum += term
	}
	return 1 / sum
}
