//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation slows the
// multi-million-call reference comparisons about tenfold.
const raceEnabled = true
