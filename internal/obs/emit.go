package obs

// Emit forwards e to s when s is non-nil. It is the single sanctioned
// emission point outside this package: instrumented code calls Emit
// unconditionally instead of hand-rolling `if sink != nil` guards, so the
// zero-cost-when-disabled contract (one never-taken branch per event site)
// lives in exactly one place. The sink-discipline altlint rule enforces
// this. Emit is small enough to inline.
//
// e is the emitter's own reusable event, refilled in place before each
// call: Event.Reset, then one assignment per field — never a composite
// literal, which the compiler builds as a temporary and copies, and whose
// address handed to a sink would escape, one allocation per event. The
// pointer is valid only for the duration of the call (see Sink). On a hot
// path, gate the whole instrumentation block behind a plain boolean
// computed once (`instrumented := sink != nil`) so disabled runs skip the
// fill, and still emit through Emit inside it.
//
//altlint:hotpath
func Emit(s Sink, e *Event) {
	if s != nil {
		s.Event(e)
	}
}
