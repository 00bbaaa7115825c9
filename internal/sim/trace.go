// Package sim is the call-by-call event-driven simulator used for every
// experiment in the paper's §4: Poisson call arrivals per O-D pair,
// exponentially distributed unit-mean holding times, admission control with
// state protection on each link, warm-up discarding, and per-pair/per-link
// accounting. Traces are generated once per (seed, load) and replayed
// against every routing policy (common random numbers), exactly as the paper
// prescribes.
package sim

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Call is one point-to-point call request (§2: origin, destination, and an
// identical unit bandwidth demand for all calls in this preliminary study).
type Call struct {
	// ID is the call's index in its trace; policies may use it for
	// deterministic per-call choices shared across policies.
	ID int
	// Origin and Dest identify the ordered O-D pair.
	Origin, Dest graph.NodeID
	// Arrival is the arrival epoch; Holding the call duration (mean 1).
	Arrival, Holding float64
}

// Check is the one validity rule for a call an engine reads from an
// in-memory Trace or Source, the rule ReadTrace applies to trace files:
// origin and destination are nodes of the graph, the arrival is finite and
// non-negative, the holding finite and positive. The comparisons are
// written so that NaN fails them. Run, RunWithRetrials, RunSignaling and
// multirate.Run check every call they read; an unchecked NaN or infinite
// epoch would silently reorder the departure queue.
func (c Call) Check(numNodes int) error {
	if c.valid(numNodes) {
		return nil
	}
	if !c.inGraph(numNodes) {
		return fmt.Errorf("sim: call %d: %d→%d is not a pair of the graph's %d nodes", c.ID, c.Origin, c.Dest, numNodes)
	}
	return fmt.Errorf("sim: call %d: arrival %v and holding %v must be finite, arrival ≥ 0 and holding > 0", c.ID, c.Arrival, c.Holding)
}

// valid is Check's rule without the error, cheap enough for the event
// loop to apply to every call it reads.
func (c *Call) valid(numNodes int) bool {
	return c.inGraph(numNodes) &&
		c.Arrival >= 0 && c.Arrival <= math.MaxFloat64 && c.Holding > 0 && c.Holding <= math.MaxFloat64
}

// inGraph reports whether the call's origin and destination are nodes of
// a numNodes-node graph.
func (c *Call) inGraph(numNodes int) bool {
	return uint(c.Origin) < uint(numNodes) && uint(c.Dest) < uint(numNodes)
}

// Trace is an immutable arrival sequence sorted by arrival time.
type Trace struct {
	Calls []Call
	// Horizon is the generation horizon: arrivals cover [0, Horizon).
	Horizon float64
	// Seed is the master seed the trace was derived from.
	Seed int64
}

// GenerateTrace draws Poisson arrivals for every O-D pair with rates given
// by the traffic matrix (Erlangs = arrivals per unit time, since holding
// times have unit mean) over [0, horizon), with exponential unit-mean
// holding times. Each pair uses an independent substream keyed by (seed,
// origin, dest), so the same (matrix, seed) always reproduces the same
// trace, and scaling the matrix changes rates without perturbing unrelated
// pairs' substreams.
//
// GenerateTrace materializes the whole arrival sequence; it is implemented
// as a drain of NewStream, so replaying a trace and consuming the stream
// directly are bit-identical. Prefer the streaming source (Config.Source)
// for long horizons where O(calls) memory matters.
func GenerateTrace(m *traffic.Matrix, horizon float64, seed int64) *Trace {
	s, err := NewStream(m, horizon, seed)
	if err != nil {
		panic(err)
	}
	return s.Materialize()
}
