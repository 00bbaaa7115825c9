package ctrl

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// post sends one JSON request to the test server and decodes the reply.
func post[T any](t *testing.T, client *http.Client, url string, body any) (T, int) {
	t.Helper()
	var out T
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return out, resp.StatusCode
}

func TestServerHTTPWire(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	reg := obs.NewRegistry()
	srv, err := NewServer(Config{Graph: g, Policy: pol, Sink: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	cl := ts.Client()
	at := 1.0

	// Admit over the wire.
	ar, code := post[AdmitResponse](t, cl, ts.URL+"/admit",
		AdmitRequest{ID: 1, From: "node0", To: "node1", At: &at})
	if code != http.StatusOK || !ar.Admitted || ar.Hops != 1 || ar.BlockedAt != -1 {
		t.Fatalf("admit: %+v (%d)", ar, code)
	}
	// Duplicate id → 409 with the typed error on the wire.
	ar, code = post[AdmitResponse](t, cl, ts.URL+"/admit",
		AdmitRequest{ID: 1, From: "node0", To: "node1", At: &at})
	if code != http.StatusConflict || ar.Error == "" {
		t.Fatalf("duplicate admit: %+v (%d)", ar, code)
	}
	// Unknown node → 400.
	if _, code = post[AdmitResponse](t, cl, ts.URL+"/admit",
		AdmitRequest{ID: 2, From: "nope", To: "node1"}); code != http.StatusBadRequest {
		t.Fatalf("unknown node: %d", code)
	}

	// Topology: fail the duplex 0<->1 facility, admit again — must detour.
	tp, code := post[TopologyResponse](t, cl, ts.URL+"/topology",
		TopologyRequest{From: "node0", To: "node1", Down: true, Duplex: true})
	if code != http.StatusOK || len(tp.Links) != 2 {
		t.Fatalf("topology: %+v (%d)", tp, code)
	}
	ar, code = post[AdmitResponse](t, cl, ts.URL+"/admit",
		AdmitRequest{ID: 3, From: "node0", To: "node1", At: &at})
	if code != http.StatusOK || !ar.Admitted || !ar.Alternate || ar.Hops != 2 {
		t.Fatalf("admit over failed trunk: %+v (%d)", ar, code)
	}
	if _, code = post[TopologyResponse](t, cl, ts.URL+"/topology",
		TopologyRequest{From: "node0", To: "node1", Down: false, Duplex: true}); code != http.StatusOK {
		t.Fatalf("repair: %d", code)
	}

	// Release both calls; second release of each is a 409.
	for _, id := range []int64{1, 3} {
		rr, code := post[ReleaseResponse](t, cl, ts.URL+"/release", ReleaseRequest{ID: id})
		if code != http.StatusOK || !rr.Released {
			t.Fatalf("release %d: %+v (%d)", id, rr, code)
		}
	}
	if _, code = post[ReleaseResponse](t, cl, ts.URL+"/release", ReleaseRequest{ID: 1}); code != http.StatusConflict {
		t.Fatalf("double release: %d", code)
	}

	// Status reflects the decisions; so does the obs registry.
	resp, err := cl.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := st.Metrics
	if m.Admitted != 2 || m.Released != 2 || m.DuplicateAdmits != 1 || m.UnknownReleases != 1 {
		t.Errorf("status metrics %+v", m)
	}
	if st.Occupancy != 0 || !st.Compiled || len(st.Protection) == 0 {
		t.Errorf("status %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Accepted != 2 || snap.LinkDowns != 2 || snap.LinkUps != 2 || snap.Departed != 2 {
		t.Errorf("registry snapshot: accepted=%d downs=%d ups=%d departed=%d",
			snap.Accepted, snap.LinkDowns, snap.LinkUps, snap.Departed)
	}
}

// TestServerConcurrentSwarmSerializes fires concurrent clients at the
// server and checks conservation: every admitted call books links,
// every release frees them, and the final occupancy is exactly the
// in-flight calls' hops — whatever the interleaving.
func TestServerConcurrentSwarmSerializes(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	srv, err := NewServer(Config{Graph: g, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Admit(9999, 0, 1, 0, true); !errors.Is(err, ErrShutdown) {
		t.Errorf("admit before Start: %v, want ErrShutdown", err)
	}
	srv.Start()

	const clients, perClient = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := int64(c*perClient + i)
				o := graph.NodeID(int(id) % 4)
				d := graph.NodeID((int(id) + 1 + int(id)%3) % 4)
				dec, err := srv.Admit(id, o, d, float64(i), true)
				if err != nil {
					t.Errorf("admit %d: %v", id, err)
					return
				}
				if dec.Admitted && id%2 == 0 {
					if err := srv.Release(id, float64(i), true); err != nil {
						t.Errorf("release %d: %v", id, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	m := st.Metrics
	if m.Offered != clients*perClient {
		t.Errorf("offered %d, want %d", m.Offered, clients*perClient)
	}
	if m.Admitted+m.Blocked != m.Offered {
		t.Errorf("admitted %d + blocked %d != offered %d", m.Admitted, m.Blocked, m.Offered)
	}
	if m.UnknownReleases != 0 || m.ReleaseIdle != 0 || m.DuplicateAdmits != 0 {
		t.Errorf("ingest errors under swarm: %+v", m)
	}

	// After shutdown the server is closed, even to a later Start.
	srv.Start()
	if _, err := srv.Admit(9999, 0, 1, 0, true); !errors.Is(err, ErrShutdown) {
		t.Errorf("admit after Shutdown: %v, want ErrShutdown", err)
	}
}

// TestServerShutdownMidSwarm shuts the server down under a concurrent
// admit/release swarm: every call gets a decision or ErrShutdown, nothing
// is decided after Shutdown returns, and the books balance — offered =
// admitted + blocked, and the occupancy left is exactly the hops of the
// calls still in flight.
func TestServerShutdownMidSwarm(t *testing.T) {
	g := netmodel.Quadrangle()
	srv, err := NewServer(Config{Graph: g, Policy: quadranglePolicy(t, g, 85), Sink: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	// Each client decides until it is refused; the cap only bounds a
	// Shutdown that never comes.
	const clients, stride, warm = 8, 1 << 20, 100
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		inFlight int // hops booked by admitted, unreleased calls
		refused  int // calls answered with ErrShutdown
	)
	started := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hops := 0
			defer func() {
				mu.Lock()
				inFlight += hops
				mu.Unlock()
			}()
			refuse := func() {
				mu.Lock()
				refused++
				mu.Unlock()
			}
			for i := 0; i < stride; i++ {
				if i == warm {
					started <- struct{}{}
				}
				id := int64(c*stride + i)
				o := graph.NodeID(int(id) % 4)
				d := graph.NodeID((int(id) + 1 + int(id)%3) % 4)
				dec, err := srv.Admit(id, o, d, float64(i), true)
				if errors.Is(err, ErrShutdown) {
					refuse()
					return
				}
				if err != nil {
					t.Errorf("admit %d: %v", id, err)
					return
				}
				if !dec.Admitted {
					continue
				}
				hops += len(dec.Links)
				if id%2 == 0 {
					switch err := srv.Release(id, float64(i), true); {
					case errors.Is(err, ErrShutdown):
						refuse()
						return
					case err != nil:
						t.Errorf("release %d: %v", id, err)
						return
					}
					hops -= len(dec.Links)
				}
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-started
	}
	srv.Shutdown()
	m := srv.Engine().Metrics()
	occ := srv.Engine().State().TotalOccupancy()
	wg.Wait()

	if refused != clients {
		t.Errorf("%d clients refused, want all %d", refused, clients)
	}
	if after := srv.Engine().Metrics(); after != m {
		t.Errorf("decisions after Shutdown returned: %+v → %+v", m, after)
	}
	if m.Admitted+m.Blocked != m.Offered {
		t.Errorf("admitted %d + blocked %d != offered %d", m.Admitted, m.Blocked, m.Offered)
	}
	if m.UnknownReleases != 0 || m.ReleaseIdle != 0 || m.DuplicateAdmits != 0 {
		t.Errorf("ingest errors under swarm: %+v", m)
	}
	if occ != inFlight {
		t.Errorf("total occupancy %d, want %d (hops of the calls still in flight)", occ, inFlight)
	}
}

// TestServerEstimateEpochs wires the full feedback loop — estimator,
// adaptive scheme, shared Erlang cache — and checks that estimate epochs
// re-derive protection levels from the live Λ̂ and recompile thresholds.
func TestServerEstimateEpochs(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 85)
	scheme, err := core.New(g, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adapt := scheme.Adaptive(core.AdaptRederive, nil)
	tc, ok := adapt.Policy().(sim.TableCompiler)
	if !ok {
		t.Fatal("adaptive policy must compile")
	}
	est, err := estimate.New(g, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Graph: g, Policy: tc, Estimator: est, Adapt: adapt, RefreshEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()

	before := append([]int(nil), scheme.Protection...)
	// Offer one pair's calls only (and release promptly): the estimator
	// sees heavy Λ̂ on the 0→1 trunk and zero everywhere else, so the
	// re-derived levels must diverge from the uniform a-priori ones.
	id := int64(0)
	for now := 0.0; now < 20; now += 0.05 {
		dec, err := srv.Admit(id, 0, 1, now, true)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted {
			if err := srv.Release(id, now, true); err != nil {
				t.Fatal(err)
			}
		}
		id++
	}
	st, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Refreshes == 0 {
		t.Fatal("no estimate epochs ran")
	}
	if len(st.Protection) != len(before) {
		t.Fatalf("protection length %d, want %d", len(st.Protection), len(before))
	}
	same := true
	for i := range before {
		if st.Protection[i] != before[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("estimate epochs never moved the protection levels off the a-priori derivation")
	}
	// The skewed estimates must be visible in the status snapshot.
	hot := g.LinkBetween(0, 1)
	if st.Estimates[hot] == 0 {
		t.Error("hot link has zero Λ̂ despite sustained offered load")
	}
}

// TestServerTopologyRejectsWholeRequest: a duplex request over a facility
// with only one direction is refused before either direction is applied,
// and the error names the missing direction.
func TestServerTopologyRejectsWholeRequest(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.MustAddLink(a, b, 10) // one-way: there is no b→a
	for _, end := range []graph.NodeID{a, b} {
		if _, _, err := g.AddDuplex(end, c, 10); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(Config{Graph: g, Policy: quadranglePolicy(t, g, 5)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	before, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}

	tp, code := post[TopologyResponse](t, ts.Client(), ts.URL+"/topology",
		TopologyRequest{From: "a", To: "b", Down: true, Duplex: true})
	if code != http.StatusBadRequest || tp.Error != "no link b→a" || len(tp.Links) != 0 {
		t.Errorf("duplex over a one-way link: %+v (%d), want 400 naming b→a", tp, code)
	}
	after, err := srv.Status()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Engine().State().LinkDown(ab) {
		t.Error("rejected request took a→b down")
	}
	if after.Metrics.Recompiles != before.Metrics.Recompiles {
		t.Errorf("rejected request recompiled thresholds: %d → %d",
			before.Metrics.Recompiles, after.Metrics.Recompiles)
	}
}

// TestServerSinkAddsNoAllocs: the server fills its one reusable
// event in place, so attaching a sink costs a decision no allocation.
func TestServerSinkAddsNoAllocs(t *testing.T) {
	g := netmodel.Quadrangle()
	pol, err := benchPolicy(g, 85)
	if err != nil {
		t.Fatal(err)
	}
	perDecision := func(sink obs.Sink) float64 {
		srv, err := NewServer(Config{Graph: g, Policy: pol, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		defer srv.Shutdown()
		id := int64(0)
		return testing.AllocsPerRun(200, func() {
			id++
			dec, err := srv.Admit(id, graph.NodeID(id%4), graph.NodeID((id+1)%4), float64(id), true)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Admitted {
				if err := srv.Release(id, float64(id), true); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	bare, withSink := perDecision(nil), perDecision(obs.NullSink{})
	if withSink > bare {
		t.Fatalf("a decision allocates %v objects with a sink, %v without", withSink, bare)
	}
}
