// Package erlang implements the Erlang loss-system calculations that underpin
// the controlled alternate-routing scheme of Sibal & DeSimone (SIGCOMM 1994):
// the classical Erlang-B blocking function, Jagerman's inverse-blocking
// recursion, the generalized blocking function of an arbitrary birth–death
// chain, and the state-protection (trunk-reservation) level solver of the
// paper's Equation 15.
//
// Throughout, traffic intensities are in Erlangs (offered load with unit mean
// holding time) and capacities are in calls (integer circuits).
package erlang

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidArgument reports a blocking-function call with a negative load or
// capacity, or a non-finite load.
var ErrInvalidArgument = errors.New("erlang: invalid argument")

// B computes the Erlang-B blocking probability B(load, capacity): the
// stationary probability that a Poisson stream of intensity load Erlangs
// offered to capacity circuits finds all circuits busy.
//
// It uses the numerically stable forward recursion
//
//	B(λ, 0) = 1
//	B(λ, c) = λ·B(λ, c−1) / (c + λ·B(λ, c−1))
//
// which involves only quantities in [0, 1]. B panics on invalid input; use
// BChecked for validated evaluation.
func B(load float64, capacity int) float64 {
	b, err := BChecked(load, capacity)
	if err != nil {
		panic(err)
	}
	return b
}

// BChecked is B with explicit error reporting instead of panicking.
func BChecked(load float64, capacity int) (float64, error) {
	if load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return 0, fmt.Errorf("%w: load %v", ErrInvalidArgument, load)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("%w: capacity %d", ErrInvalidArgument, capacity)
	}
	if load == 0 {
		if capacity == 0 {
			return 1, nil
		}
		return 0, nil
	}
	b := 1.0
	for c := 1; c <= capacity; c++ {
		b = load * b / (float64(c) + load*b)
	}
	return b, nil
}

// InverseB computes y = 1/B(load, capacity) via Jagerman's recursion
//
//	y_0 = 1
//	y_x = 1 + (x/λ)·y_{x−1}
//
// (Equation 12 of the paper). The inverse form grows monotonically and avoids
// underflow of B itself for lightly loaded links, which matters when forming
// the ratio B(Λ,C)/B(Λ,C−r) in Equation 15. InverseB panics if load <= 0 or
// capacity < 0.
func InverseB(load float64, capacity int) float64 {
	if load <= 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		panic(fmt.Errorf("%w: load %v (must be > 0)", ErrInvalidArgument, load))
	}
	if capacity < 0 {
		panic(fmt.Errorf("%w: capacity %d", ErrInvalidArgument, capacity))
	}
	y := 1.0
	for x := 1; x <= capacity; x++ {
		y = 1 + float64(x)/load*y
		if math.IsInf(y, 0) {
			return math.Inf(1)
		}
	}
	return y
}

// Ratio computes B(load, c1) / B(load, c0) for c1 >= c0 using the inverse
// recursion, i.e. y_{c0} / y_{c1}. This is the quantity bounded by 1/H in
// Equation 15. The ratio is well defined (and <= 1) for load > 0.
func Ratio(load float64, c1, c0 int) float64 {
	if c1 < c0 {
		panic(fmt.Errorf("%w: Ratio requires c1 >= c0 (got c1=%d c0=%d)", ErrInvalidArgument, c1, c0))
	}
	if load <= 0 {
		// With no offered load the loss ratio is degenerate; treat as the
		// limiting value 0 when capacities differ, 1 when equal.
		if c1 == c0 {
			return 1
		}
		return 0
	}
	// Extend y from c0 to c1 and divide, so the shared prefix cancels exactly.
	y0 := InverseB(load, c0)
	y := y0
	for x := c0 + 1; x <= c1; x++ {
		y = 1 + float64(x)/load*y
		if math.IsInf(y, 0) {
			return 0
		}
	}
	return y0 / y
}

// ProtectionLevel returns the smallest state-protection (trunk-reservation)
// level r in [0, capacity] such that
//
//	B(load, capacity) / B(load, capacity−r) <= 1/maxHops
//
// (Equation 15 of the paper). With such an r the expected number of primary
// calls displaced by one admitted alternate-routed call on the link is at
// most 1/maxHops, so admitting an alternate call on any loop-free path of at
// most maxHops hops can only improve on single-path routing.
//
// If even r = capacity cannot satisfy the inequality (i.e. B(load, capacity)
// > 1/maxHops, which happens for overloaded links such as the Λ>C rows of
// the paper's Table 1), ProtectionLevel returns capacity: the link never
// admits alternate-routed calls.
//
// ProtectionLevel panics if capacity < 0 or maxHops < 1 or load < 0.
func ProtectionLevel(load float64, capacity, maxHops int) int {
	return ProtectionLevelTraced(load, capacity, maxHops, nil)
}

// ProtectionLevelTraced is ProtectionLevel with the Equation-15 search
// instrumented: when trace is non-nil it observes every candidate r
// examined, in search order, with its loss ratio B(Λ,C)/B(Λ,C−r) — the
// quantity the search drives below 1/maxHops. The returned level and the
// panics are identical to ProtectionLevel's.
func ProtectionLevelTraced(load float64, capacity, maxHops int, trace func(r int, ratio float64)) int {
	if capacity < 0 {
		panic(fmt.Errorf("%w: capacity %d", ErrInvalidArgument, capacity))
	}
	if maxHops < 1 {
		panic(fmt.Errorf("%w: maxHops %d", ErrInvalidArgument, maxHops))
	}
	if load < 0 || math.IsNaN(load) {
		panic(fmt.Errorf("%w: load %v", ErrInvalidArgument, load))
	}
	if load == 0 {
		return 0 // B(0, C) = 0 for C >= 1; no protection needed.
	}
	target := 1 / float64(maxHops)
	// Grow y upward from capacity (r = 0) and stop at the first r whose ratio
	// y_{C−r}/y_C = B(Λ,C)/B(Λ,C−r) meets the target. Computing y once up to
	// capacity and reusing the prefix keeps this O(C).
	ys := make([]float64, capacity+1)
	ys[0] = 1
	for x := 1; x <= capacity; x++ {
		ys[x] = 1 + float64(x)/load*ys[x-1]
	}
	yC := ys[capacity]
	for r := 0; r <= capacity; r++ {
		ratio := ys[capacity-r] / yC
		if trace != nil {
			trace(r, ratio)
		}
		if ratio <= target {
			return r
		}
	}
	return capacity
}

// LossBound evaluates the right-hand side of Theorem 1: the upper bound
// B(load, capacity)/B(load, capacity−r) on the expected number of primary
// calls lost on the link per admitted alternate-routed call, given
// state-protection level r. r is clamped to [0, capacity].
func LossBound(load float64, capacity, r int) float64 {
	if r < 0 {
		r = 0
	}
	if r > capacity {
		r = capacity
	}
	return Ratio(load, capacity, capacity-r)
}
