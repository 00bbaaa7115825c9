package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunSinkAllocatesOneEvent: an instrumented run fills one reusable
// event in place, so attaching a sink costs the run one allocation (the
// event) and no allocation per emitted event, at any run length.
func TestRunSinkAllocatesOneEvent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sc := goldenScenarios(t)[0]
	pol := goldenPolicies(t, sc)["controlled"]
	for _, horizon := range []float64{6, 24} {
		trace := sim.GenerateTrace(sc.m, horizon, 1)
		allocs := func(sink obs.Sink) float64 {
			runtime.GC()
			return testing.AllocsPerRun(3, func() {
				if _, err := sim.Run(sim.Config{
					Graph: sc.g, Policy: pol, Trace: trace, Warmup: sc.warmup,
					WindowLength: 1, Sink: sink, OccupancyEvents: sink != nil,
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		bare, instrumented := allocs(nil), allocs(obs.NullSink{})
		if instrumented > bare+1 {
			t.Fatalf("horizon %v: %v allocations with a sink, %v bare; want at most one more",
				horizon, instrumented, bare)
		}
	}
}

// TestSinksCopyEvents: every emitter reuses one event, so a sink that
// kept the pointer instead of a copy would hold the last event over and
// over. The retaining sinks (Buffer, Ring, the golden recordSink, and a
// Buffer's FlushTo replay) must instead hold exactly the stream the
// reference engine emits, one freshly built event at a time.
func TestSinksCopyEvents(t *testing.T) {
	sc := goldenScenarios(t)[0]
	pol := goldenPolicies(t, sc)["controlled"]
	trace := sim.GenerateTrace(sc.m, sc.horizon, 1)
	cfg := sim.Config{
		Graph: sc.g, Policy: pol, Trace: trace, Warmup: sc.warmup,
		WindowLength: 1, OccupancyEvents: true,
	}
	ref := &recordSink{}
	refCfg := cfg
	refCfg.Sink = ref
	if _, err := referenceRun(refCfg); err != nil {
		t.Fatal(err)
	}
	buf, ring, rec := obs.NewBuffer(), obs.NewRing(len(ref.events)), &recordSink{}
	cfg.Sink = obs.Multi(buf, ring, rec)
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	replayed := &recordSink{}
	bufEvents := buf.Events()
	buf.FlushTo(replayed)
	if first, last := ref.events[0], ref.events[len(ref.events)-1]; first == last {
		t.Fatal("the reference stream cannot tell retained pointers from copies")
	}
	requireSameEvents(t, "Buffer", bufEvents, ref.events)
	requireSameEvents(t, "Ring", ring.Events(), ref.events)
	requireSameEvents(t, "recordSink", rec.events, ref.events)
	requireSameEvents(t, "Buffer.FlushTo", replayed.events, ref.events)
}
