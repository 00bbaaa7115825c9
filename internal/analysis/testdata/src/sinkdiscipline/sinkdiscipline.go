// Package sinkdiscipline exercises the sink-discipline rule: event emission
// goes through obs.Emit, which owns the single nil-sink branch.
package sinkdiscipline

import "repro/internal/obs"

// AdHoc hand-rolls the nil guard — flagged once, at the guard.
func AdHoc(sink obs.Sink, t float64) {
	if sink != nil { // want sink-discipline
		sink.Event(new(obs.Event).Reset(obs.KindRunStart, t))
	}
}

// Direct emits without any guard — flagged at the call.
func Direct(sink obs.Sink, t float64) {
	sink.Event(new(obs.Event).Reset(obs.KindRunEnd, t)) // want sink-discipline
}

// Disciplined uses obs.Emit and is clean.
func Disciplined(sink obs.Sink, t float64) {
	obs.Emit(sink, new(obs.Event).Reset(obs.KindRunStart, t))
}

// Gated hoists the nil test into a boolean so a hot path can skip filling
// its one reusable event, then still emits through obs.Emit — clean.
func Gated(sink obs.Sink, ts []float64) {
	instrumented := sink != nil
	var ev obs.Event
	for i, t := range ts {
		if instrumented {
			ev.Reset(obs.KindLinkOccupancy, t).Link = i
			obs.Emit(sink, &ev)
		}
	}
}

// Suppressed demonstrates the ignore directive with a reason.
func Suppressed(sink obs.Sink, t float64) {
	//altlint:ignore sink-discipline measured dispatch overhead forces a local guard
	if sink != nil {
		sink.Event(new(obs.Event).Reset(obs.KindRunEnd, t))
	}
}
