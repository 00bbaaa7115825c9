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
