package sim

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/traffic"
)

// directLink routes a↔b over the single direct link.
func directPolicy(g *graph.Graph, a, b graph.NodeID) fixedPolicy {
	return fixedPolicy{paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{g.LinkBetween(a, b)}}}
}

// TestEventOrderingDeparturesFirst pins the departure-queue semantics into
// the event stream: a departure at epoch t is emitted (and its capacity
// freed) before an arrival at the same epoch t.
func TestEventOrderingDeparturesFirst(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.MustAddLink(a, b, 1)
	tr := &Trace{Horizon: 10, Seed: 42, Calls: []Call{
		{ID: 0, Origin: a, Dest: b, Arrival: 1, Holding: 2}, // departs at 3
		{ID: 1, Origin: a, Dest: b, Arrival: 3, Holding: 1}, // simultaneous with the departure
	}}
	ring := obs.NewRing(64)
	res, err := Run(Config{Graph: g, Policy: directPolicy(g, a, b), Trace: tr, Sink: ring, OccupancyEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (capacity freed before simultaneous arrival)", res.Accepted)
	}
	events := ring.Events()
	departAt3, offer1 := -1, -1
	for i, e := range events {
		if e.Kind == obs.KindCallDeparted && e.Time == 3 {
			departAt3 = i
		}
		if e.Kind == obs.KindCallOffered && e.Call == 1 {
			offer1 = i
		}
	}
	if departAt3 < 0 || offer1 < 0 {
		t.Fatalf("missing events: depart=%d offer=%d in %+v", departAt3, offer1, events)
	}
	if departAt3 > offer1 {
		t.Fatalf("departure at t=3 emitted at index %d after the simultaneous offer at %d", departAt3, offer1)
	}
	if events[0].Kind != obs.KindRunStart || events[0].Seed != 42 || events[0].Policy != "fixed" {
		t.Fatalf("first event = %+v, want run-start with policy and seed", events[0])
	}
	if last := events[len(events)-1]; last.Kind != obs.KindRunEnd {
		t.Fatalf("last event = %+v, want run-end", last)
	}
	// The offer that followed the simultaneous departure must report the
	// drained event-loop work.
	if events[offer1].Drained != 1 {
		t.Fatalf("offer of call 1 drained = %d, want 1", events[offer1].Drained)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}
}

// TestEventStreamReproducesResult is the accounting-consistency contract:
// re-aggregating the event stream yields the run's Result counters — and
// Blocking() — exactly, on a loaded quadrangle run with warm-up.
func TestEventStreamReproducesResult(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 95)
	tr := GenerateTrace(m, 60, 3)
	ring := obs.NewRing(1 << 20)
	res, err := Run(Config{
		Graph: g, Policy: fixedFirstHop{g}, Trace: tr,
		Warmup: 5, WindowLength: 10, Sink: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == 0 || res.Accepted == 0 {
		t.Fatal("want a run with both accepted and blocked calls")
	}
	runs := obs.Aggregate(ring.Events())
	if len(runs) != 1 {
		t.Fatalf("%d runs aggregated, want 1", len(runs))
	}
	got := runs[0]
	if got.Offered != res.Offered || got.Accepted != res.Accepted || got.Blocked != res.Blocked ||
		got.PrimaryAccepted != res.PrimaryAccepted || got.AlternateAccepted != res.AlternateAccepted ||
		got.CarriedHopCount != res.CarriedHopCount {
		t.Fatalf("aggregate %+v != result %+v", got, res)
	}
	if got.Blocking() != res.Blocking() {
		t.Fatalf("aggregate blocking %v != result blocking %v", got.Blocking(), res.Blocking())
	}
	if got.Windows != len(res.Windows) {
		t.Fatalf("aggregate saw %d windows, result has %d", got.Windows, len(res.Windows))
	}
	// Window-closure events carry the same per-window counts as Result.
	wi := 0
	for _, e := range ring.Events() {
		if e.Kind != obs.KindWindowClosed {
			continue
		}
		w := res.Windows[wi]
		if e.Window != wi || e.Offered != w.Offered || e.Blocked != w.Blocked || e.Time != w.End {
			t.Fatalf("window event %+v != result window %d %+v", e, wi, w)
		}
		wi++
	}
	if wi != len(res.Windows) {
		t.Fatalf("%d window events, want %d", wi, len(res.Windows))
	}
}

// TestEventStreamJSONLRoundTrip drives the full persistence path: run →
// JSONL sink → re-read → aggregate → exact Result.Blocking match.
func TestEventStreamJSONLRoundTrip(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 90)
	tr := GenerateTrace(m, 40, 1)
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	res, err := Run(Config{Graph: g, Policy: fixedFirstHop{g}, Trace: tr, Warmup: 5, Sink: sink, OccupancyEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.Aggregate(events)
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	if runs[0].Blocking() != res.Blocking() {
		t.Fatalf("jsonl-aggregated blocking %v != %v", runs[0].Blocking(), res.Blocking())
	}
	if runs[0].Policy != res.Policy || runs[0].Seed != tr.Seed {
		t.Fatalf("run identity %q/%d, want %q/%d", runs[0].Policy, runs[0].Seed, res.Policy, tr.Seed)
	}
	occ := 0
	for _, e := range events {
		if e.Kind == obs.KindLinkOccupancy {
			occ++
		}
	}
	if occ == 0 {
		t.Fatal("OccupancyEvents produced no occupancy samples")
	}
}

// TestWarmupEventsUnmeasured checks that warm-up arrivals appear in the
// stream flagged unmeasured, so they are visible but excluded from blocking.
func TestWarmupEventsUnmeasured(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.MustAddLink(a, b, 10)
	tr := &Trace{Horizon: 20, Calls: []Call{
		{ID: 0, Origin: a, Dest: b, Arrival: 2, Holding: 1},  // warm-up
		{ID: 1, Origin: a, Dest: b, Arrival: 12, Holding: 1}, // measured
	}}
	ring := obs.NewRing(64)
	res, err := Run(Config{Graph: g, Policy: directPolicy(g, a, b), Trace: tr, Warmup: 10, Sink: ring})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 1 {
		t.Fatalf("offered = %d, want 1", res.Offered)
	}
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.KindCallOffered, obs.KindCallAdmitted:
			if want := e.Call == 1; e.Measured != want {
				t.Fatalf("event %+v measured = %v, want %v", e, e.Measured, want)
			}
		}
	}
	if got := obs.Aggregate(ring.Events())[0].Offered; got != 1 {
		t.Fatalf("aggregated offered = %d, want 1", got)
	}
}

// TestNilSinkUnchanged guards determinism: running with and without a sink
// must produce identical results.
func TestNilSinkUnchanged(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 100)
	tr := GenerateTrace(m, 40, 9)
	bare, err := Run(Config{Graph: g, Policy: fixedFirstHop{g}, Trace: tr, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Run(Config{Graph: g, Policy: fixedFirstHop{g}, Trace: tr, Warmup: 5, Sink: obs.NullSink{}, OccupancyEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Offered != instr.Offered || bare.Blocked != instr.Blocked ||
		bare.Accepted != instr.Accepted || bare.CarriedHopCount != instr.CarriedHopCount {
		t.Fatalf("sink changed results: %+v vs %+v", bare, instr)
	}
}
