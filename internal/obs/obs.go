// Package obs is the simulator's observability layer: a typed event stream
// emitted from the hot paths (internal/sim's event loop, the fixed-point and
// Equation-15 solvers), cheap atomic counters and histograms aggregated
// across runs, and sinks that persist or buffer the stream (JSONL files,
// in-memory rings, fan-out).
//
// The layer is zero-dependency (standard library only) and designed around a
// zero-cost-when-disabled contract: instrumented code holds a Sink that is
// nil by default, and every emission sits behind a single nil-check, so the
// uninstrumented path costs one never-taken branch per event site. Events
// are flat value structs that each emitter fills in place and passes by
// pointer — emitting one allocates and copies nothing.
//
// A run's Result is derivable from its event stream: Aggregate replays a
// stream (or a JSONL file re-read with ReadJSONL) into per-run totals whose
// Blocking matches sim.Result.Blocking exactly, so the two accountings can
// be cross-checked.
package obs

import "fmt"

// Kind discriminates the event types of the stream.
type Kind uint8

const (
	// KindRunStart opens one simulation run's segment of the stream. The
	// event carries the policy name and the trace seed.
	KindRunStart Kind = iota + 1
	// KindCallOffered records one call arrival (before routing). Drained
	// carries the number of departures processed since the previous
	// arrival — the event-loop work preceding this admission decision.
	KindCallOffered
	// KindCallAdmitted records an accepted call: Hops is the carried path
	// length and Alternate reports whether the path was an alternate.
	KindCallAdmitted
	// KindCallBlocked records a lost call; Link is the first blocking link
	// of the call's primary path (the paper's loss-attribution convention),
	// or -1 when unattributed.
	KindCallBlocked
	// KindCallDeparted records one call teardown at the end of its holding
	// time.
	KindCallDeparted
	// KindLinkOccupancy is a sample of one link's occupancy, emitted after
	// the link's occupancy changed (admission or departure).
	KindLinkOccupancy
	// KindWindowClosed closes one measurement window with its
	// offered/blocked counts (the nonstationary studies' time series).
	KindWindowClosed
	// KindRunEnd closes a run's segment; Offered and Blocked carry the
	// run's measured totals as a cross-check.
	KindRunEnd
	// KindLinkDown records a scheduled link failure (sim.FailurePlan):
	// Link is the failed link, Occupancy its occupancy at the failure epoch
	// (the in-flight calls about to be torn down or rerouted).
	KindLinkDown
	// KindLinkUp records a link repair; Occupancy is always zero (a
	// repaired link rejoins empty, see DESIGN.md §11).
	KindLinkUp
	// KindCallLostFailure records an in-flight call torn down by a link
	// failure without re-admission: Link is the failed link on its path,
	// Hops the torn path's length, Measured whether the failure epoch lies
	// in the measurement window (mirrors Result.LostToFailure).
	KindCallLostFailure
	// KindCallRerouted records an in-flight call re-admitted onto a
	// surviving path at a failure epoch (FailoverReroute): Hops is the new
	// path's length, Alternate whether it is an alternate of the call's
	// pair (mirrors Result.FailureRerouted).
	KindCallRerouted
	// KindRegimeShift records a confirmed change of the windowed-blocking
	// regime detected by the time-series layer (internal/obs/timeseries):
	// Window is the closing window that confirmed the shift, Offered and
	// Blocked its counts, and From/To name the regimes. Never emitted by
	// the simulator itself — it is derived telemetry folded back into the
	// stream so regime history rides alongside the raw events.
	KindRegimeShift
)

var kindNames = [...]string{
	KindRunStart:        "run-start",
	KindCallOffered:     "call-offered",
	KindCallAdmitted:    "call-admitted",
	KindCallBlocked:     "call-blocked",
	KindCallDeparted:    "call-departed",
	KindLinkOccupancy:   "link-occupancy",
	KindWindowClosed:    "window-closed",
	KindRunEnd:          "run-end",
	KindLinkDown:        "link-down",
	KindLinkUp:          "link-up",
	KindCallLostFailure: "call-lost-failure",
	KindCallRerouted:    "call-rerouted",
	KindRegimeShift:     "regime-shift",
}

// KindCount is one past the highest declared Kind; Kind values in
// [1, KindCount) are valid. Exhaustive tests iterate this range so a kind
// added without a wire name fails loudly instead of serializing as
// "kind(n)".
const KindCount = Kind(len(kindNames))

// String returns the kind's wire name (used in JSONL output).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText encodes the kind as its wire name.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return nil, fmt.Errorf("obs: unknown event kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a wire name back into the kind.
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one simulator occurrence. A single flat struct (rather than one
// type per kind) keeps emission allocation-free; fields not listed in the
// kind's documentation are zero. Time is the simulation epoch.
type Event struct {
	Kind Kind    `json:"kind"`
	Time float64 `json:"t"`
	// Call, Origin and Dest identify the call for the Call* kinds.
	Call   int `json:"call"`
	Origin int `json:"origin"`
	Dest   int `json:"dest"`
	// Link and Occupancy carry the link sample (KindLinkOccupancy) or the
	// blocking link (KindCallBlocked, -1 when unattributed).
	Link      int `json:"link"`
	Occupancy int `json:"occ"`
	// Hops is the carried path length (KindCallAdmitted/KindCallDeparted).
	Hops int `json:"hops"`
	// Window indexes the closed window (KindWindowClosed).
	Window int `json:"win"`
	// Offered and Blocked carry window or run totals.
	Offered int64 `json:"offered"`
	Blocked int64 `json:"blocked"`
	// Alternate marks an alternate-routed admission.
	Alternate bool `json:"alt"`
	// Measured marks events inside the measurement window [Warmup,
	// Horizon); only measured events enter blocking statistics.
	Measured bool `json:"measured"`
	// Drained is the number of departures processed since the previous
	// arrival (KindCallOffered).
	Drained int `json:"drained"`
	// Policy and Seed identify the run (KindRunStart).
	Policy string `json:"policy,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// From and To name the regimes of a KindRegimeShift record; empty for
	// every simulator-emitted kind (omitted from the wire form, so streams
	// without shifts are byte-identical to pre-telemetry readers' inputs).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// Reset zeroes e, sets its kind and epoch, and returns e: the first step
// of filling an emitter's reusable event in place (see Emit). It clears
// the fields one by one, and the strings only when one is set: assigning
// Event{} to a heap event zeroes all 160 bytes through the runtime's
// pointer-aware clear, which costs an instrumented quadrangle run about a
// third of its emission overhead. TestEventResetZeroesEveryField keeps the
// list complete.
func (e *Event) Reset(kind Kind, t float64) *Event {
	if e.Policy != "" || e.From != "" || e.To != "" {
		e.Policy, e.From, e.To = "", "", ""
	}
	e.Kind, e.Time = kind, t
	e.Call, e.Origin, e.Dest, e.Link, e.Occupancy, e.Hops, e.Window = 0, 0, 0, 0, 0, 0, 0
	e.Offered, e.Blocked, e.Seed = 0, 0, 0
	e.Alternate, e.Measured = false, false
	e.Drained = 0
	return e
}

// Sink consumes an event stream. Event receives a pointer that is valid
// only for the duration of the call: each emitter owns one Event that it
// resets and refills in place for every emission, so a sink that keeps an
// event must copy *e, and no sink may modify it (a fan-out hands the same
// pointer to every sink in turn). Implementations shared across
// concurrently executing runs must be safe for concurrent use (every sink
// in this package is). Emission sites hold a Sink value that is nil when
// observability is disabled, and emit through Emit, which owns the nil
// check.
type Sink interface {
	Event(e *Event)
}

// NullSink discards every event; it exists to measure the cost of the
// emission path itself (see BenchmarkRunInstrumented).
type NullSink struct{}

// Event implements Sink.
func (NullSink) Event(*Event) {}
