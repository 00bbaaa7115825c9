// Package ctrl is the live routing control plane: the paper's controlled
// alternate-routing scheme serving real admission decisions instead of
// simulated ones. An Engine applies admit/release requests against a live
// sim.State through the compiled route tables (the same thresholds and
// branch-poor row scan as the simulator's fast path, so replayed request
// traces decide bit-identically to an offline sim.Run); a Server
// serializes concurrent clients onto one decision loop that takes requests
// one at a time, feeds observed set-ups into the EWMA Λ̂ estimator,
// re-derives protection levels at estimate epochs (core.AdaptiveScheme
// generalized from failure epochs), and reacts to link-down/up
// notifications by recompiling thresholds exactly as sim.Run does. While a
// recompile fails, admissions are refused with ErrNotCompiled rather than
// decided against stale thresholds.
//
// The package is deterministic by construction: it never reads a wall
// clock (timestamps are injected — requests carry them, or cmd/altd's
// Clock maps wall time to model time), and its only goroutine is the
// single decision loop, joined on shutdown after draining every enqueued
// decision.
package ctrl
