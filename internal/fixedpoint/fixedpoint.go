// Package fixedpoint implements the Erlang fixed-point (reduced-load)
// approximation for state-independent routing (Kelly, "Loss networks",
// 1991): each link k is approximated as an independent M/M/C/C system
// offered the thinned load
//
//	ρ_k = Σ_{paths P ∋ k} T_P · Π_{l ∈ P, l ≠ k} (1 − B_l),
//
// with B_k = E(ρ_k, C_k) solved self-consistently by repeated substitution
// (a contraction at the paper's operating points). The fixed point predicts
// the single-path curve of §4 analytically and supplies the reduced-load
// variant of the Ott–Krishnan comparator's per-link intensities.
package fixedpoint

import (
	"fmt"
	"math"
	"time"

	"repro/internal/erlang"
	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/traffic"
)

// Options tunes the fixed-point iteration.
type Options struct {
	// MaxIterations bounds repeated substitution (default 10000).
	MaxIterations int
	// Tolerance is the convergence criterion on max |ΔB| (default 1e-12).
	Tolerance float64
	// Damping in (0,1] blends successive iterates (default 0.5, which
	// guards against oscillation on heavily loaded cycles).
	Damping float64
	// OnIteration, when non-nil, observes each substitution sweep: the
	// 0-based iteration index, the residual max |ΔB| after the sweep, and
	// the wall time elapsed since Solve started. The convergence trace of
	// the solve — pass obs.ConvergenceTrace.Observe (adapted) to export it.
	OnIteration func(iter int, residual float64, elapsed time.Duration)
}

// Result is the converged approximation.
type Result struct {
	// LinkBlocking is B_k per link.
	LinkBlocking []float64
	// ReducedLoad is the thinned offered load ρ_k per link.
	ReducedLoad []float64
	// PathBlocking maps each ordered pair to the approximate probability its
	// (possibly bifurcated) primary routing blocks a call:
	// Σ_w weight_w · (1 − Π_{k ∈ P_w} (1 − B_k)).
	PathBlocking map[[2]graph.NodeID]float64
	// NetworkBlocking is the traffic-weighted average path blocking — the
	// analytic analogue of the simulated single-path curve.
	NetworkBlocking float64
	// Iterations actually performed.
	Iterations int
}

// Solve computes the fixed point for the route table's primaries offered
// the matrix's demands.
func Solve(g *graph.Graph, m *traffic.Matrix, table *policy.Table, opts Options) (*Result, error) {
	if g.NumNodes() != m.Size() {
		return nil, fmt.Errorf("fixedpoint: matrix size %d for %d nodes", m.Size(), g.NumNodes())
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 10000
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-12
	}
	if opts.Damping <= 0 || opts.Damping > 1 {
		opts.Damping = 0.5
	}

	// Collect the weighted primary paths with their demands.
	type routedDemand struct {
		pair   [2]graph.NodeID
		links  []graph.LinkID
		demand float64
	}
	var routes []routedDemand
	n := g.NumNodes()
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			d := m.Demand(i, j)
			if d == 0 {
				continue
			}
			rs := table.Routes(i, j)
			if rs == nil {
				return nil, fmt.Errorf("fixedpoint: no routes %d→%d", i, j)
			}
			for _, wp := range rs.Primaries {
				routes = append(routes, routedDemand{
					pair:   [2]graph.NodeID{i, j},
					links:  wp.Path.Links,
					demand: d * wp.Weight,
				})
			}
		}
	}

	nl := g.NumLinks()
	b := make([]float64, nl)
	rho := make([]float64, nl)
	next := make([]float64, nl)
	caps := make([]int, nl)
	for k := range caps {
		caps[k] = g.Link(graph.LinkID(k)).Capacity
	}
	// Per-link incidence lists, in route order. Summing each link's thinned
	// demand over its own list reproduces the route-major accumulation order
	// exactly — for a fixed k the contributions arrive in the same sequence —
	// so the float sums are bit-identical.
	linkRoutes := make([][]int32, nl)
	for ri, rd := range routes {
		for _, k := range rd.links {
			linkRoutes[k] = append(linkRoutes[k], int32(ri))
		}
	}
	// Memoize B(ρ, C) across links and sweeps: links related by symmetry
	// carry identical reduced loads every sweep, and once the iteration
	// settles the loads repeat exactly — either way the O(C) recursion runs
	// once per distinct argument pair. Cache hits are bit-identical to
	// recomputation, so the converged fixed point is unchanged.
	cache := erlang.NewCache()
	var elapsed func() time.Duration
	if opts.OnIteration != nil {
		elapsed = iterClock()
	}
	iter := 0
	for ; iter < opts.MaxIterations; iter++ {
		// Jacobi sweep: every link's thinned load and blocking update read
		// only the previous iterate b.
		worst := 0.0
		for k := 0; k < nl; k++ {
			sum := 0.0
			for _, ri := range linkRoutes[k] {
				rd := &routes[ri]
				thin := rd.demand
				for _, l := range rd.links {
					if int(l) != k {
						thin *= 1 - b[l]
					}
				}
				sum += thin
			}
			rho[k] = sum
			if !g.Up(graph.LinkID(k)) {
				// Failed links block with certainty; skip damping so the
				// value is exact from the first sweep.
				next[k] = 1
			} else {
				next[k] = (1-opts.Damping)*b[k] + opts.Damping*cache.B(rho[k], caps[k])
			}
			if d := math.Abs(next[k] - b[k]); d > worst {
				worst = d
			}
		}
		copy(b, next)
		if opts.OnIteration != nil {
			opts.OnIteration(iter, worst, elapsed())
		}
		if worst <= opts.Tolerance {
			iter++
			break
		}
	}

	res := &Result{
		LinkBlocking: b,
		ReducedLoad:  rho,
		PathBlocking: make(map[[2]graph.NodeID]float64),
		Iterations:   iter,
	}
	var lost, total float64
	for _, rd := range routes {
		carry := 1.0
		for _, k := range rd.links {
			carry *= 1 - b[k]
		}
		blocking := 1 - carry
		res.PathBlocking[rd.pair] += blocking * rd.demand
		lost += rd.demand * blocking
		total += rd.demand
	}
	// Normalize per-pair blocking by the pair's demand.
	for pair := range res.PathBlocking {
		d := m.Demand(pair[0], pair[1])
		if d > 0 {
			res.PathBlocking[pair] /= d
		}
	}
	if total > 0 {
		res.NetworkBlocking = lost / total
	}
	return res, nil
}

// iterClock starts a wall-clock stopwatch for the OnIteration telemetry
// callback. It is the package's only nondeterministic source: the elapsed
// time is reported to the caller's progress hook and never feeds a result.
//
//altlint:nondet-ok wall-clock telemetry for the OnIteration hook only; never feeds results
func iterClock() func() time.Duration {
	started := time.Now()
	return func() time.Duration { return time.Since(started) }
}
