package sim_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// triangle builds a duplex triangle a-b-c with the given per-link capacity
// and returns the graph plus an uncontrolled policy over its min-hop table.
func triangle(t *testing.T, capacity int) (*graph.Graph, *policy.Table) {
	t.Helper()
	g := graph.New()
	g.AddNodes(3)
	for _, pair := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if _, _, err := g.AddDuplex(pair[0], pair[1], capacity); err != nil {
			t.Fatal(err)
		}
	}
	table, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, table
}

func manualTrace(horizon float64, calls ...sim.Call) *sim.Trace {
	return &sim.Trace{Calls: calls, Horizon: horizon}
}

// kinds extracts the event-kind sequence for assertions on stream shape.
func kinds(events []obs.Event) []obs.Kind {
	out := make([]obs.Kind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

func countKind(events []obs.Event, k obs.Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestFailureDropTearsDownInFlight: two calls in flight on a link when it
// fails are both torn down (in call-id order), counted in LostToFailure,
// and the repaired link rejoins with zero occupancy.
func TestFailureDropTearsDownInFlight(t *testing.T) {
	g, table := triangle(t, 2)
	ab := g.LinkBetween(0, 1)
	pol := policy.SinglePath{T: table}

	tr := manualTrace(10,
		sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 0.25, Holding: 5},
		sim.Call{ID: 1, Origin: 0, Dest: 1, Arrival: 0.5, Holding: 5},
		// After the repair the link must admit again.
		sim.Call{ID: 2, Origin: 0, Dest: 1, Arrival: 4, Holding: 0.5},
	)
	plan := &sim.FailurePlan{}
	plan.Add(1, ab, true)
	plan.Add(3, ab, false)

	sink := &recordSink{}
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: pol, Trace: tr, Warmup: 0,
		Failures: plan, Failover: sim.FailoverDrop, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.LostToFailure != 2 || res.FailureRerouted != 0 {
		t.Fatalf("accepted=%d lost=%d rerouted=%d, want 3/2/0",
			res.Accepted, res.LostToFailure, res.FailureRerouted)
	}
	// Torn calls are not departures; only call 2 departs.
	if n := countKind(sink.events, obs.KindCallDeparted); n != 1 {
		t.Fatalf("departures=%d, want 1 (stream %v)", n, kinds(sink.events))
	}
	var lost []int
	for _, e := range sink.events {
		switch e.Kind {
		case obs.KindCallLostFailure:
			lost = append(lost, e.Call)
			if e.Link != int(ab) || !e.Measured {
				t.Fatalf("lost event %+v, want link %d measured", e, ab)
			}
		case obs.KindLinkDown:
			if e.Occupancy != 2 {
				t.Fatalf("link-down occupancy %d, want 2", e.Occupancy)
			}
		case obs.KindLinkUp:
			if e.Occupancy != 0 {
				t.Fatalf("repaired link occupancy %d, want 0", e.Occupancy)
			}
		}
	}
	if !reflect.DeepEqual(lost, []int{0, 1}) {
		t.Fatalf("lost call ids %v, want [0 1] (teardown in call-id order)", lost)
	}
	if countKind(sink.events, obs.KindLinkUp) != 1 {
		t.Fatal("missing link-up event")
	}
	// The stream's totals must fold back to the Result's failure counters.
	runs := obs.Aggregate(sink.events)
	if len(runs) != 1 || runs[0].LostToFailure != res.LostToFailure ||
		runs[0].LinkDowns != 1 || runs[0].LinkUps != 1 {
		t.Fatalf("aggregate %+v disagrees with result", runs[0])
	}
}

// TestFailoverRerouteRescuesOverAlternate: a call whose direct link fails
// is re-admitted over the two-hop alternate, keeps its departure epoch, and
// counts FailureRerouted instead of LostToFailure.
func TestFailoverRerouteRescuesOverAlternate(t *testing.T) {
	g, table := triangle(t, 2)
	ab := g.LinkBetween(0, 1)
	pol := policy.Uncontrolled{T: table}

	tr := manualTrace(10, sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 0.5, Holding: 4})
	plan := &sim.FailurePlan{}
	plan.Add(2, ab, true)

	sink := &recordSink{}
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: pol, Trace: tr, Warmup: 0,
		Failures: plan, Failover: sim.FailoverReroute, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostToFailure != 0 || res.FailureRerouted != 1 {
		t.Fatalf("lost=%d rerouted=%d, want 0/1", res.LostToFailure, res.FailureRerouted)
	}
	foundReroute := false
	for _, e := range sink.events {
		if e.Kind == obs.KindCallRerouted {
			foundReroute = true
			if e.Hops != 2 || !e.Alternate || e.Call != 0 {
				t.Fatalf("reroute event %+v, want 2-hop alternate of call 0", e)
			}
		}
		if e.Kind == obs.KindCallDeparted && !sameFloat(e.Time, 4.5) {
			t.Fatalf("departure at %v, want original epoch 4.5", e.Time)
		}
	}
	if !foundReroute {
		t.Fatalf("no call-rerouted event in %v", kinds(sink.events))
	}
	if countKind(sink.events, obs.KindCallDeparted) != 1 {
		t.Fatal("rescued call must still depart once")
	}
}

// TestFailoverRerouteRespectsProtection: with a controlled policy the
// re-admission attempt honours state protection — an alternate with
// occupancy above C−r−1 refuses the rescue and the call is lost.
func TestFailoverRerouteRespectsProtection(t *testing.T) {
	g, table := triangle(t, 2)
	ab := g.LinkBetween(0, 1)
	// r=2 on every link: alternates never admitted (C−r−1 < 0).
	r := make([]int, g.NumLinks())
	for i := range r {
		r[i] = 2
	}
	pol := policy.Controlled{T: table, R: r}

	tr := manualTrace(10, sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 0.5, Holding: 4})
	plan := &sim.FailurePlan{}
	plan.Add(2, ab, true)
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: pol, Trace: tr, Warmup: 0,
		Failures: plan, Failover: sim.FailoverReroute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostToFailure != 1 || res.FailureRerouted != 0 {
		t.Fatalf("lost=%d rerouted=%d, want 1/0 (protection must veto rescue)",
			res.LostToFailure, res.FailureRerouted)
	}
}

// TestDepartureAtFailureEpochCompletes: a call whose holding time ends
// exactly at the failure epoch departs normally (departures run before
// same-epoch plan events).
func TestDepartureAtFailureEpochCompletes(t *testing.T) {
	g, table := triangle(t, 2)
	ab := g.LinkBetween(0, 1)
	pol := policy.SinglePath{T: table}
	tr := manualTrace(10, sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 0.5, Holding: 1.5})
	plan := &sim.FailurePlan{}
	plan.Add(2, ab, true)
	sink := &recordSink{}
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: pol, Trace: tr, Warmup: 0,
		Failures: plan, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostToFailure != 0 {
		t.Fatalf("lost=%d, want 0: the call ended as the link failed", res.LostToFailure)
	}
	if countKind(sink.events, obs.KindCallDeparted) != 1 {
		t.Fatal("call must depart normally")
	}
}

// TestFailureBlocksArrivalsWhileDown: arrivals during an outage of their
// only path are blocked (and attributed), not crashed.
func TestFailureBlocksArrivalsWhileDown(t *testing.T) {
	g := graph.New()
	g.AddNodes(2)
	if _, _, err := g.AddDuplex(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	table, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab := g.LinkBetween(0, 1)
	pol := policy.SinglePath{T: table}
	tr := manualTrace(10,
		sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 1.5, Holding: 1},
		sim.Call{ID: 1, Origin: 0, Dest: 1, Arrival: 3.5, Holding: 1},
	)
	plan := &sim.FailurePlan{}
	plan.Add(1, ab, true)
	plan.Add(3, ab, false)
	res, err := sim.Run(sim.Config{
		Graph: g, Policy: pol, Trace: tr, Warmup: 0, Failures: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked != 1 || res.Accepted != 1 || res.LostAtLink[ab] != 1 {
		t.Fatalf("blocked=%d accepted=%d lostAt=%d, want 1/1/1",
			res.Blocked, res.Accepted, res.LostAtLink[ab])
	}
}

// TestFailurePlanValidation: bad plans and bad windows are rejected up
// front instead of corrupting the run.
func TestFailurePlanValidation(t *testing.T) {
	g, table := triangle(t, 2)
	pol := policy.SinglePath{T: table}
	tr := manualTrace(10, sim.Call{ID: 0, Origin: 0, Dest: 1, Arrival: 0.5, Holding: 1})
	base := sim.Config{Graph: g, Policy: pol, Trace: tr}

	run := func(mutate func(*sim.Config)) error {
		cfg := base
		mutate(&cfg)
		_, err := sim.Run(cfg)
		return err
	}
	if err := run(func(c *sim.Config) { c.Warmup = math.NaN() }); err == nil {
		t.Fatal("NaN warmup must error")
	}
	if err := run(func(c *sim.Config) { c.Warmup = 10 }); err == nil {
		t.Fatal("warmup >= horizon must error")
	}
	if err := run(func(c *sim.Config) { c.Warmup = 3; c.Horizon = 2 }); err == nil {
		t.Fatal("warmup >= explicit horizon must error")
	}
	if err := run(func(c *sim.Config) {
		p := &sim.FailurePlan{}
		p.Add(math.NaN(), 0, true)
		c.Failures = p
	}); err == nil {
		t.Fatal("NaN epoch must error")
	}
	if err := run(func(c *sim.Config) {
		p := &sim.FailurePlan{}
		p.Add(-1, 0, true)
		c.Failures = p
	}); err == nil {
		t.Fatal("negative epoch must error")
	}
	if err := run(func(c *sim.Config) {
		p := &sim.FailurePlan{}
		p.Add(1, graph.LinkID(g.NumLinks()), true)
		c.Failures = p
	}); err == nil {
		t.Fatal("out-of-range link must error")
	}
}

// TestGenerateOutagesDeterministicAndWellFormed: same inputs give the
// bit-identical plan; epochs are sorted, in range, and every link
// alternates down/up starting with a failure. Duplex mode moves both
// directions of a pair together.
func TestGenerateOutagesDeterministicAndWellFormed(t *testing.T) {
	g := netmodel.Quadrangle()
	op := sim.OutageParams{MTBF: 3, MTTR: 1, Duplex: true, Seed: 7}
	plan, err := sim.GenerateOutages(g, 50, op)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sim.GenerateOutages(g, 50, op)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("same inputs must give the identical plan")
	}
	if len(plan.Events) == 0 {
		t.Fatal("horizon 50 at MTBF 3 should produce outages")
	}
	state := make(map[graph.LinkID]bool)
	last := 0.0
	for i, ev := range plan.Events {
		if ev.Epoch < last {
			t.Fatalf("event %d: epoch %v before %v", i, ev.Epoch, last)
		}
		last = ev.Epoch
		if ev.Epoch <= 0 || ev.Epoch >= 50 {
			t.Fatalf("event %d: epoch %v outside (0,50)", i, ev.Epoch)
		}
		if state[ev.Link] == ev.Down {
			t.Fatalf("event %d: link %d repeated state %v", i, ev.Link, ev.Down)
		}
		state[ev.Link] = ev.Down
	}
	// Duplex pairing: both directions share epochs and states exactly.
	byLink := make(map[graph.LinkID][]sim.FailureEvent)
	for _, ev := range plan.Events {
		byLink[ev.Link] = append(byLink[ev.Link], ev)
	}
	links := g.LinkView()
	for id := range links {
		rev := g.LinkBetween(links[id].To, links[id].From)
		fwd, bwd := byLink[graph.LinkID(id)], byLink[rev]
		if len(fwd) != len(bwd) {
			t.Fatalf("link %d: %d events vs twin's %d", id, len(fwd), len(bwd))
		}
		for i := range fwd {
			if !sameFloat(fwd[i].Epoch, bwd[i].Epoch) || fwd[i].Down != bwd[i].Down {
				t.Fatalf("link %d event %d: %+v diverges from twin %+v", id, i, fwd[i], bwd[i])
			}
		}
	}
	// An invalid parameterization must error.
	if _, err := sim.GenerateOutages(g, 50, sim.OutageParams{MTBF: 0, MTTR: 1}); err == nil {
		t.Fatal("MTBF <= 0 must error")
	}
	// A non-finite horizon would never end a link's renewal loop.
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := sim.GenerateOutages(g, h, op); err == nil {
			t.Fatalf("horizon %v must error", h)
		}
	}
}

// TestReadFailurePlanJSON parses the altsim -failures file format.
func TestReadFailurePlanJSON(t *testing.T) {
	g, _ := triangle(t, 2)
	doc := `[
		{"t": 30, "from": 0, "to": 1, "down": true, "duplex": true},
		{"t": 70, "from": 0, "to": 1, "down": false, "duplex": true},
		{"t": 40, "from": 1, "to": 2, "down": true}
	]`
	plan, err := sim.ReadFailurePlanJSON(strings.NewReader(doc), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 5 {
		t.Fatalf("%d events, want 5 (two duplex entries + one simplex)", len(plan.Events))
	}
	// Endpoints may also be node names.
	byName, err := sim.ReadFailurePlanJSON(strings.NewReader(
		`[{"t": 40, "from": "n1", "to": "n2", "down": true}]`), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(byName.Events) != 1 || byName.Events[0].Link != g.LinkBetween(1, 2) {
		t.Fatalf("name-resolved plan = %+v", byName.Events)
	}
	if _, err := sim.ReadFailurePlanJSON(strings.NewReader(`[{"t":1,"from":0,"to":0,"down":true}]`), g); err == nil {
		t.Fatal("unknown link must error")
	}
	if _, err := sim.ReadFailurePlanJSON(strings.NewReader(`[{"t":1,"from":"nope","to":0,"down":true}]`), g); err == nil {
		t.Fatal("unknown node name must error")
	}
	if _, err := sim.ReadFailurePlanJSON(strings.NewReader(`[{"t":1,"from":99,"to":0,"down":true}]`), g); err == nil {
		t.Fatal("out-of-range node id must error")
	}
	if _, err := sim.ReadFailurePlanJSON(strings.NewReader(`garbage`), g); err == nil {
		t.Fatal("malformed JSON must error")
	}
}

// TestProtectionSliceShorterThanLinkSpace is the r[id] out-of-range
// regression test: a scheme derived before the topology grew must degrade
// to r=0 on the new links, not panic with index-out-of-range.
func TestProtectionSliceShorterThanLinkSpace(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 90)
	scheme, err := core.New(g, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prot := scheme.Protection

	// Grow the topology after the derivation: a fifth node with duplex
	// links to two corners. prot now covers only the original link space.
	e := g.AddNode("e")
	ea, _, err := g.AddDuplex(e, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.AddDuplex(e, 2, 5); err != nil {
		t.Fatal(err)
	}

	st := sim.NewState(g)
	alt := paths.Path{Nodes: []graph.NodeID{e, 0}, Links: []graph.LinkID{ea}}
	ok, _ := st.PathAdmitsAlternate(alt, prot) // panicked before the guard
	if !ok {
		t.Fatal("idle new link with implicit r=0 must admit an alternate")
	}

	// End to end: a controlled policy whose table spans the grown graph but
	// whose protection vector predates it must route alternates through the
	// new links without panicking.
	table, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.Controlled{T: table, R: prot}
	c := sim.Call{ID: 0, Origin: e, Dest: 1}
	prim := pol.PrimaryPath(st, c)
	for {
		ok, _ := st.PathAdmitsPrimary(prim)
		if !ok {
			break
		}
		st.Occupy(prim)
	}
	if _, alternate, ok := pol.Route(st, c); !ok || !alternate {
		t.Fatalf("route ok=%v alternate=%v, want an alternate admission", ok, alternate)
	}
}
