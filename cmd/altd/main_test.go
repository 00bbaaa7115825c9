package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/sim"
)

// writeScenario drops a small quadrangle scenario file and returns its
// path plus the built graph/matrix for the offline cross-check.
func writeScenario(t *testing.T, load float64) (string, *netio.Scenario) {
	t.Helper()
	sc := &netio.Scenario{
		Name:  "smoke-quadrangle",
		Nodes: []string{"a", "b", "c", "d"},
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			sc.Duplex = append(sc.Duplex, netio.LinkSpec{
				From: sc.Nodes[i], To: sc.Nodes[j], Capacity: 30})
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			sc.Demands = append(sc.Demands, netio.DemandSpec{
				From: sc.Nodes[i], To: sc.Nodes[j], Erlangs: load})
		}
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, sc
}

func postJSON[T any](t *testing.T, url string, body any) (T, int) {
	t.Helper()
	var out T
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return out, resp.StatusCode
}

// TestDaemonSmoke is the end-to-end smoke: boot the daemon from a scenario
// file, drive a deterministic request swarm over HTTP with model-time
// timestamps, cross-check the decision counters against an offline sim.Run
// on the equivalent trace, scrape /metrics, and shut down gracefully with
// the JSONL event stream flushed and parseable.
func TestDaemonSmoke(t *testing.T) {
	scenario, sc := writeScenario(t, 25)
	events := filepath.Join(t.TempDir(), "events.jsonl")
	o, err := parseFlags([]string{
		"-scenario", scenario,
		"-addr", "127.0.0.1:0",
		"-est-window", "0", // estimation off: decisions must replay sim.Run
		"-tick", "0",
		"-events", events,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.run() }()
	base := "http://" + d.addr()

	// Offline ground truth on the same scenario and trace.
	tr, res, admitted := offlineTruth(t, sc, 8.0, 7)
	if res.Blocked == 0 {
		t.Fatal("trace exercises no blocking: raise the load")
	}

	// The deterministic request swarm: admits at arrivals, releases at the
	// departures of sim-admitted calls, releases first on timestamp ties
	// (the simulator drains departures before arrivals). Requests go over
	// the wire sequentially so the decision order is pinned.
	type req struct {
		at      float64
		release bool
		id      int
	}
	var reqs []req
	for _, c := range tr.Calls {
		reqs = append(reqs, req{at: c.Arrival, id: c.ID})
		if admitted[c.ID] {
			reqs = append(reqs, req{at: c.Arrival + c.Holding, release: true, id: c.ID})
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].release && !reqs[j].release
	})
	liveAdmitted, liveBlocked := 0, 0
	for _, r := range reqs {
		at := r.at
		if r.release {
			rr, code := postJSON[ctrl.ReleaseResponse](t, base+"/release",
				ctrl.ReleaseRequest{ID: int64(r.id), At: &at})
			if code != http.StatusOK {
				t.Fatalf("release %d: %+v (%d)", r.id, rr, code)
			}
			continue
		}
		c := tr.Calls[r.id]
		ar, code := postJSON[ctrl.AdmitResponse](t, base+"/admit", ctrl.AdmitRequest{
			ID: int64(r.id), From: sc.Nodes[c.Origin], To: sc.Nodes[c.Dest], At: &at})
		if code != http.StatusOK {
			t.Fatalf("admit %d: %+v (%d)", r.id, ar, code)
		}
		if ar.Admitted != admitted[r.id] {
			t.Fatalf("call %d: live admitted=%v, sim admitted=%v", r.id, ar.Admitted, admitted[r.id])
		}
		if ar.Admitted {
			liveAdmitted++
		} else {
			liveBlocked++
		}
	}
	if int64(liveAdmitted) != res.Accepted || int64(liveBlocked) != res.Blocked {
		t.Errorf("live %d/%d vs sim %d/%d (admitted/blocked)",
			liveAdmitted, liveBlocked, res.Accepted, res.Blocked)
	}

	// Status agrees with the swarm's own counts.
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st ctrl.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Metrics.Admitted != uint64(liveAdmitted) || st.Metrics.Blocked != uint64(liveBlocked) {
		t.Errorf("status counters %+v, want %d/%d", st.Metrics, liveAdmitted, liveBlocked)
	}

	// /metrics serves the Prometheus exposition from the live registry.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "altroute_calls_accepted_total") {
		t.Error("/metrics misses altroute_calls_accepted_total")
	}

	// Graceful shutdown flushes the JSONL stream; every decision must be
	// in it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ef, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	evs, err := obs.ReadJSONL(ef)
	if err != nil {
		t.Fatal(err)
	}
	var offered int
	for _, e := range evs {
		if e.Kind == obs.KindCallOffered {
			offered++
		}
	}
	if offered != len(tr.Calls) {
		t.Errorf("event stream has %d offered, want %d", offered, len(tr.Calls))
	}

	// Post-shutdown requests are refused, not hung.
	if _, err := http.Get(base + "/status"); err == nil {
		t.Error("status after shutdown must fail")
	}
}

// admitLog records which calls an offline sim.Run admitted.
type admitLog map[int]bool

func (a admitLog) Event(e *obs.Event) {
	if e.Kind == obs.KindCallAdmitted {
		a[e.Call] = true
	}
}

// offlineTruth derives the same controlled policy the daemon derives with
// estimation disabled and runs the offline simulator on a generated trace,
// returning the trace, the result, and the per-call admission verdicts.
func offlineTruth(t *testing.T, sc *netio.Scenario, horizon float64, seed int64) (*sim.Trace, *sim.Result, admitLog) {
	t.Helper()
	g, m, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.New(g, m, core.Options{H: sc.H})
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.GenerateTrace(m, horizon, seed)
	admitted := make(admitLog)
	res, err := sim.Run(sim.Config{Graph: g, Policy: scheme.Controlled(), Trace: tr, Sink: admitted})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res, admitted
}
