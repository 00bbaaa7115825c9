package main

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
)

// TestObsSetupEndToEnd drives the -events/-metrics plumbing the way main
// does: wire the flags into SimParams, run a real (small) experiment, finish,
// and check that the persisted JSONL stream re-aggregates to exactly the
// counters in the metrics snapshot.
func TestObsSetupEndToEnd(t *testing.T) {
	dir := t.TempDir()
	o := obsOptions{
		events:  filepath.Join(dir, "events.jsonl"),
		metrics: filepath.Join(dir, "metrics.json"),
	}
	p := experiments.SimParams{Seeds: 2, Warmup: 5, Horizon: 30}
	finish := o.setup(&p)
	if p.Sink == nil || p.Metrics == nil || !p.OccupancyEvents {
		t.Fatal("setup did not wire SimParams")
	}

	sweep, err := experiments.Quadrangle([]float64{90}, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.SeriesByName("controlled-alternate") == nil {
		t.Fatal("experiment produced no controlled series")
	}
	finish()
	finish() // idempotent

	f, err := os.Open(o.events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.Aggregate(events)
	// 2 seeds × 3 policies, in seed order because the sink serializes runs.
	if len(runs) != 6 {
		t.Fatalf("%d runs in stream, want 6", len(runs))
	}
	var offered, blocked int64
	for _, r := range runs {
		if r.Policy == "" {
			t.Errorf("run missing policy name: %+v", r)
		}
		offered += r.Offered
		blocked += r.Blocked
	}

	raw, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs != 6 {
		t.Errorf("snapshot runs = %d, want 6", snap.Runs)
	}
	if snap.Offered != offered || snap.Blocked != blocked {
		t.Errorf("snapshot offered/blocked %d/%d != stream aggregate %d/%d",
			snap.Offered, snap.Blocked, offered, blocked)
	}
	if snap.Blocking == nil {
		t.Fatal("snapshot blocking missing despite offered calls")
	}
	if want := float64(blocked) / float64(offered); *snap.Blocking != want {
		t.Errorf("snapshot blocking %v != re-aggregated %v", *snap.Blocking, want)
	}
	if len(snap.LinkOccupancy) == 0 {
		t.Error("no link-occupancy distributions despite OccupancyEvents")
	}
}

// TestObsSetupDisabled checks that with no flags set, setup is a no-op and
// simulation stays uninstrumented (the nil-sink fast path).
func TestObsSetupDisabled(t *testing.T) {
	var o obsOptions
	var p experiments.SimParams
	finish := o.setup(&p)
	finish()
	if p.Sink != nil || p.Metrics != nil || p.OccupancyEvents {
		t.Fatal("disabled setup must leave SimParams untouched")
	}
}

// TestObsSetupWindowed runs setup with the time-series window enabled and
// checks that the simulator's window stats are wired in and the persisted
// stream folds into a dense windowed series.
func TestObsSetupWindowed(t *testing.T) {
	dir := t.TempDir()
	o := obsOptions{
		events: filepath.Join(dir, "events.jsonl"),
		window: 5,
	}
	p := experiments.SimParams{Seeds: 1, Warmup: 5, Horizon: 30}
	finish := o.setup(&p)
	if p.WindowLength != 5 {
		t.Fatalf("WindowLength = %v, want 5", p.WindowLength)
	}
	if _, err := experiments.Quadrangle([]float64{90}, 0, p); err != nil {
		t.Fatal(err)
	}
	finish()

	f, err := os.Open(o.events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	sawWindowClosed := false
	for _, e := range events {
		if e.Kind == obs.KindWindowClosed {
			sawWindowClosed = true
			break
		}
	}
	if !sawWindowClosed {
		t.Error("no window-closed events in stream despite -window")
	}
	series, err := timeseries.FoldEvents(events, timeseries.Options{Width: o.window})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("stream folded into no runs")
	}
	for _, r := range series {
		if len(r.Windows) == 0 {
			t.Fatalf("run %d folded into no windows", r.Run)
		}
	}
}

// TestPublishLiveIdempotent is the duplicate-registration regression test:
// expvar.Publish and http.HandleFunc both panic on a second registration, so
// publishLive must register once and repoint thereafter. It also scrapes the
// mounted /metrics endpoint and validates the exposition.
func TestPublishLiveIdempotent(t *testing.T) {
	regA := obs.NewRegistry()
	obs.Emit(regA, &obs.Event{Kind: obs.KindRunStart, Policy: "a", Seed: 1})
	obs.Emit(regA, &obs.Event{Kind: obs.KindCallOffered, Time: 1})
	obs.Emit(regA, &obs.Event{Kind: obs.KindRunEnd, Time: 2})

	series, err := timeseries.New(timeseries.Options{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	publishLive(regA, series)
	// A second setup in the same process must not panic and must repoint the
	// endpoints at the new registry.
	regB := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		obs.Emit(regB, &obs.Event{Kind: obs.KindCallOffered, Time: float64(i), Measured: true})
	}
	publishLive(regB, nil)

	if expvar.Get("altsim") == nil {
		t.Fatal("expvar altsim not published")
	}

	srv := httptest.NewServer(http.DefaultServeMux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", got)
	}
	if err := obs.ValidateProm(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	// The scrape must reflect the most recent publishLive target (regB).
	if !strings.Contains(string(body), "altroute_calls_offered_total 3") {
		t.Fatalf("scrape does not reflect repointed registry:\n%s", body)
	}
}
