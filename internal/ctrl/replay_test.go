package ctrl

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// decisionLog captures per-call decisions from a sim event stream.
type decisionLog struct {
	mu       sync.Mutex
	admitted map[int]obs.Event // call id → admission event
	blocked  map[int]obs.Event // call id → loss event
}

func (d *decisionLog) Event(e *obs.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch e.Kind {
	case obs.KindCallAdmitted:
		d.admitted[e.Call] = *e
	case obs.KindCallBlocked:
		d.blocked[e.Call] = *e
	}
}

// TestReplayEquivalence is the acceptance golden test: a recorded
// admit/release request trace driven through the control plane (estimator
// disabled) must produce decisions bit-identical to sim.Run on the
// equivalent arrival trace. The request trace is derived from the trace
// itself — one admit per arrival, one release at each admitted call's
// departure epoch, releases ordered before admits at equal timestamps
// exactly as the simulator drains departures before arrivals.
func TestReplayEquivalence(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	if !sim.CompilesFor(pol, g) {
		t.Fatal("policy must exercise the compiled engine for this equivalence to be meaningful")
	}
	const horizon = 12.0
	tr := sim.GenerateTrace(traffic.Uniform(4, 85), horizon, 42)

	// Offline ground truth: the simulator's per-call decisions.
	want := &decisionLog{admitted: make(map[int]obs.Event), blocked: make(map[int]obs.Event)}
	res, err := sim.Run(sim.Config{Graph: g, Policy: pol, Trace: tr, Sink: want})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == 0 || res.AlternateAccepted == 0 {
		t.Fatalf("trace exercises no blocking/alternates (blocked=%d alt=%d): raise the load",
			res.Blocked, res.AlternateAccepted)
	}

	// The recorded request trace: admits at arrivals, releases at the
	// admitted calls' departures.
	type req struct {
		at      float64
		release bool
		id      int64
		o, d    graph.NodeID
	}
	var reqs []req
	for _, c := range tr.Calls {
		if c.Arrival >= horizon {
			break
		}
		reqs = append(reqs, req{at: c.Arrival, id: int64(c.ID), o: c.Origin, d: c.Dest})
		if _, ok := want.admitted[c.ID]; ok {
			reqs = append(reqs, req{at: c.Arrival + c.Holding, release: true, id: int64(c.ID)})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].release && !reqs[j].release // departures drain first
	})

	// Live replay through the server's decision loop, estimator disabled.
	srv, err := NewServer(Config{Graph: g, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()

	checked := 0
	for _, r := range reqs {
		if r.release {
			if err := srv.Release(r.id, r.at, true); err != nil {
				t.Fatalf("release %d: %v", r.id, err)
			}
			continue
		}
		dec, err := srv.Admit(r.id, r.o, r.d, r.at, true)
		if err != nil {
			t.Fatalf("admit %d: %v", r.id, err)
		}
		id := int(r.id)
		if e, ok := want.admitted[id]; ok {
			if !dec.Admitted || dec.Alternate != e.Alternate || len(dec.Links) != e.Hops {
				t.Fatalf("call %d diverges: live %+v, sim admitted alt=%v hops=%d",
					id, dec, e.Alternate, e.Hops)
			}
		} else if e, ok := want.blocked[id]; ok {
			if dec.Admitted || int(dec.BlockedAt) != e.Link {
				t.Fatalf("call %d diverges: live %+v, sim blocked at link %d", id, dec, e.Link)
			}
		} else {
			t.Fatalf("call %d decided by neither engine", id)
		}
		checked++
	}
	if checked != len(want.admitted)+len(want.blocked) {
		t.Fatalf("checked %d decisions, sim made %d", checked, len(want.admitted)+len(want.blocked))
	}

	// Counter cross-check against the offline totals.
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.Metrics.Admitted) != res.Accepted || int64(st.Metrics.Blocked) != res.Blocked {
		t.Errorf("counters diverge: live admitted=%d blocked=%d, sim %d/%d",
			st.Metrics.Admitted, st.Metrics.Blocked, res.Accepted, res.Blocked)
	}
	t.Logf("replayed %d decisions (%d admitted, %d blocked) bit-identically",
		checked, res.Accepted, res.Blocked)
}

// TestServerEventsMatchSimStream drives a Server with a Buffer sink over
// the request trace of TestReplayEquivalence and holds its event stream to
// sim.Run's on the same calls: every admission and loss names the call's
// origin and destination (and its hops or blocking link), and the
// departures up to the horizon carry the departing path's hops in sim.Run's
// order.
func TestServerEventsMatchSimStream(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	const horizon = 12.0
	tr := sim.GenerateTrace(traffic.Uniform(4, 85), horizon, 7)
	want := obs.NewBuffer()
	if _, err := sim.Run(sim.Config{Graph: g, Policy: pol, Trace: tr, Sink: want}); err != nil {
		t.Fatal(err)
	}
	decided := map[int]obs.Event{}
	var departed []int // hops of each departure, in drain order
	for _, e := range want.Events() {
		switch e.Kind {
		case obs.KindCallAdmitted, obs.KindCallBlocked:
			decided[e.Call] = e
		case obs.KindCallDeparted:
			departed = append(departed, e.Hops)
		}
	}

	type req struct {
		at      float64
		release bool
		c       sim.Call
	}
	var reqs []req
	for _, c := range tr.Calls {
		if c.Arrival >= horizon {
			break
		}
		reqs = append(reqs, req{at: c.Arrival, c: c})
		if decided[c.ID].Kind == obs.KindCallAdmitted {
			reqs = append(reqs, req{at: c.Arrival + c.Holding, release: true, c: c})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].release && !reqs[j].release
	})
	got := obs.NewBuffer()
	srv, err := NewServer(Config{Graph: g, Policy: pol, Sink: got})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for _, r := range reqs {
		if r.release {
			err = srv.Release(int64(r.c.ID), r.at, true)
		} else {
			_, err = srv.Admit(int64(r.c.ID), r.c.Origin, r.c.Dest, r.at, true)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.Shutdown()

	var decisions, blocked, k int
	for _, e := range got.Events() {
		switch e.Kind {
		case obs.KindCallAdmitted, obs.KindCallBlocked:
			w := decided[e.Call]
			if e.Kind != w.Kind || e.Origin != w.Origin || e.Dest != w.Dest || e.Hops != w.Hops || e.Link != w.Link {
				t.Fatalf("call %d: server %v %d→%d hops %d link %d, sim.Run %v %d→%d hops %d link %d",
					e.Call, e.Kind, e.Origin, e.Dest, e.Hops, e.Link, w.Kind, w.Origin, w.Dest, w.Hops, w.Link)
			}
			decisions++
			if e.Kind == obs.KindCallBlocked {
				blocked++
			}
		case obs.KindCallDeparted:
			if w := decided[e.Call]; e.Hops != w.Hops {
				t.Fatalf("call %d departed with hops %d, admitted with %d", e.Call, e.Hops, w.Hops)
			}
			if e.Time > horizon {
				continue
			}
			if k >= len(departed) || e.Hops != departed[k] {
				t.Fatalf("departure %d (call %d) carries hops %d, sim.Run's %v", k, e.Call, e.Hops, departed[k:min(k+1, len(departed))])
			}
			k++
		}
	}
	if decisions != len(decided) || k != len(departed) || blocked == 0 {
		t.Fatalf("server emitted %d decisions (%d blocked) and %d departures to the horizon, sim.Run %d and %d",
			decisions, blocked, k, len(decided), len(departed))
	}
}
