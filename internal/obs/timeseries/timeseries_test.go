package timeseries

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestDetectorBistable drives the classifier over a synthetic bistable
// blocking trace — quiet, a spike too short to confirm, a dead-band reset,
// a sustained congestion episode, and recovery — and pins the exact shift
// sequence. Everything is deterministic: same inputs, same shifts.
func TestDetectorBistable(t *testing.T) {
	d := newDetector(DetectorConfig{Low: 0.02, High: 0.15, Dwell: 3})
	blocking := []float64{
		0.00, 0.01, 0.02, // windows 0-2: low streak -> unknown->low at 2
		0.00,       // 3: reconfirms low
		0.20,       // 4: high streak 1
		0.30,       // 5: high streak 2 — one short of dwell
		0.05,       // 6: dead band resets the streak
		0.25, 0.40, // 7-8: high streak 2 again
		math.NaN(),       // 9: empty window resets again
		0.20, 0.20, 0.20, // 10-12: low->high at 12
		0.01, 0.00, // 13-14: low streak 2
		0.10,             // 15: dead band reset
		0.00, 0.01, 0.00, // 16-18: high->low at 18
	}
	var got []RegimeShift
	for i, b := range blocking {
		if s, ok := d.observe(i, float64(i+1), b); ok {
			got = append(got, s)
		}
	}
	want := []RegimeShift{
		{Window: 2, Time: 3, From: RegimeUnknown, To: RegimeLow, Blocking: 0.02},
		{Window: 12, Time: 13, From: RegimeLow, To: RegimeHigh, Blocking: 0.20},
		{Window: 18, Time: 19, From: RegimeHigh, To: RegimeLow, Blocking: 0.00},
	}
	if len(got) != len(want) {
		t.Fatalf("shifts = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRegimeRoundTrip(t *testing.T) {
	for r := RegimeUnknown; r <= RegimeHigh; r++ {
		text, err := r.MarshalText()
		if err != nil {
			t.Fatalf("regime %d: %v", r, err)
		}
		var back Regime
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("regime %q: %v", text, err)
		}
		if back != r {
			t.Fatalf("regime %d round-tripped to %d", r, back)
		}
	}
	if _, err := Regime(99).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range regime")
	}
}

// TestFolderWindows folds a hand-built single-run stream and checks the
// window boundaries, the per-kind counters, the occupancy integration with
// boundary splitting, and the partial final window. Sample epochs are
// binary-exact so the expected utilizations are too.
func TestFolderWindows(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindRunStart, Policy: "controlled", Seed: 7},
		{Kind: obs.KindCallOffered, Time: 0.25, Measured: false},
		{Kind: obs.KindCallAdmitted, Time: 0.25, Hops: 1},
		{Kind: obs.KindLinkOccupancy, Time: 0.5, Link: 0, Occupancy: 1},
		{Kind: obs.KindCallOffered, Time: 1.5, Measured: true},
		{Kind: obs.KindCallBlocked, Time: 1.5, Link: 0, Measured: true},
		{Kind: obs.KindCallOffered, Time: 2.0, Measured: true},
		{Kind: obs.KindCallAdmitted, Time: 2.0, Hops: 2, Alternate: true, Measured: true},
		{Kind: obs.KindLinkOccupancy, Time: 2.25, Link: 0, Occupancy: 0},
		{Kind: obs.KindCallDeparted, Time: 2.25, Hops: 1},
		{Kind: obs.KindRunEnd, Time: 2.5, Offered: 3, Blocked: 1},
	}
	series, err := FoldEvents(events, Options{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("%d runs, want 1", len(series))
	}
	r := series[0]
	if r.Policy != "controlled" || r.Seed != 7 || !r.Ended || r.DroppedWindows != 0 {
		t.Fatalf("run header %+v", r)
	}
	if len(r.Windows) != 3 {
		t.Fatalf("%d windows, want 3: %+v", len(r.Windows), r.Windows)
	}

	w0 := r.Windows[0]
	if w0.Index != 0 || w0.Start != 0 || w0.End != 1 || w0.Offered != 1 || w0.Accepted != 1 ||
		w0.PrimaryAccepted != 1 || w0.CarriedHops != 1 || w0.Partial {
		t.Fatalf("window 0 = %+v", w0)
	}
	// Link 0: occupancy 1 from t=0.5; covers [0.5,1) of the unit window.
	if len(w0.LinkUtil) != 1 || w0.LinkUtil[0] != 0.5 {
		t.Fatalf("window 0 LinkUtil = %v, want [0.5]", w0.LinkUtil)
	}

	w1 := r.Windows[1]
	if w1.Index != 1 || w1.Offered != 1 || w1.Blocked != 1 || w1.Accepted != 0 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if b := w1.Blocking(); b != 1 {
		t.Fatalf("window 1 blocking = %v, want 1", b)
	}
	// No samples in the window: the in-flight occupancy-1 segment spans it.
	if w1.LinkUtil[0] != 1.0 {
		t.Fatalf("window 1 LinkUtil = %v, want [1]", w1.LinkUtil)
	}

	w2 := r.Windows[2]
	if w2.Index != 2 || !w2.Partial || w2.Start != 2 || w2.End != 2.5 {
		t.Fatalf("window 2 = %+v", w2)
	}
	if w2.Offered != 1 || w2.AlternateAccepted != 1 || w2.Departed != 1 || w2.CarriedHops != 2 {
		t.Fatalf("window 2 counters = %+v", w2)
	}
	if s := w2.AlternateShare(); s != 1 {
		t.Fatalf("window 2 alternate share = %v, want 1", s)
	}
	// Occupancy 1 over [2,2.25), then 0; span 0.5 => 0.25/0.5.
	if w2.LinkUtil[0] != 0.5 {
		t.Fatalf("window 2 LinkUtil = %v, want [0.5]", w2.LinkUtil)
	}

	// An empty window has undefined blocking and share.
	if !math.IsNaN((Window{}).Blocking()) || !math.IsNaN((Window{}).AlternateShare()) {
		t.Error("empty window must report NaN blocking and alternate share")
	}
}

// TestFolderDenseWindows checks that event gaps still produce the
// intermediate empty windows (the detector relies on a dense series).
func TestFolderDenseWindows(t *testing.T) {
	series, err := FoldEvents([]obs.Event{
		{Kind: obs.KindRunStart, Policy: "p", Seed: 1},
		{Kind: obs.KindCallOffered, Time: 0.5},
		{Kind: obs.KindCallBlocked, Time: 0.5},
		{Kind: obs.KindCallOffered, Time: 4.5},
		{Kind: obs.KindCallAdmitted, Time: 4.5, Hops: 1},
		{Kind: obs.KindRunEnd, Time: 5},
	}, Options{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	wins := series[0].Windows
	if len(wins) != 5 {
		t.Fatalf("%d windows, want 5 (dense): %+v", len(wins), wins)
	}
	for i, w := range wins {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if wins[i].Events != 0 || !math.IsNaN(wins[i].Blocking()) {
			t.Fatalf("window %d should be empty: %+v", i, wins[i])
		}
	}
}

// TestFolderRing checks Capacity bounds retention: only the last n windows
// survive, oldest-first, with the evictions counted.
func TestFolderRing(t *testing.T) {
	var events []obs.Event
	events = append(events, obs.Event{Kind: obs.KindRunStart, Policy: "p", Seed: 1})
	for i := 0; i < 5; i++ {
		events = append(events, obs.Event{Kind: obs.KindCallOffered, Time: float64(i) + 0.5})
	}
	events = append(events, obs.Event{Kind: obs.KindRunEnd, Time: 5})
	series, err := FoldEvents(events, Options{Width: 1, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := series[0]
	if len(r.Windows) != 2 || r.DroppedWindows != 3 {
		t.Fatalf("ring kept %d windows (dropped %d), want 2 (dropped 3)", len(r.Windows), r.DroppedWindows)
	}
	if r.Windows[0].Index != 3 || r.Windows[1].Index != 4 {
		t.Fatalf("ring windows out of order: %+v", r.Windows)
	}
}

// TestFolderAnonymousAndMultiRun checks run delimiting: a stream that
// begins mid-run folds into an anonymous leading run (matching
// obs.Aggregate), and a run-start without a prior run-end finalizes the
// previous run with Ended=false.
func TestFolderAnonymousAndMultiRun(t *testing.T) {
	series, err := FoldEvents([]obs.Event{
		{Kind: obs.KindCallOffered, Time: 0.5},
		{Kind: obs.KindCallAdmitted, Time: 0.5, Hops: 1},
		{Kind: obs.KindRunStart, Policy: "second", Seed: 2},
		{Kind: obs.KindCallOffered, Time: 0.25},
		{Kind: obs.KindCallBlocked, Time: 0.25},
		{Kind: obs.KindRunEnd, Time: 1},
	}, Options{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d runs, want 2", len(series))
	}
	anon := series[0]
	if anon.Policy != "" || anon.Seed != 0 || anon.Ended {
		t.Fatalf("anonymous run header %+v", anon)
	}
	if len(anon.Windows) != 1 || !anon.Windows[0].Partial || anon.Windows[0].Offered != 1 {
		t.Fatalf("anonymous run windows %+v", anon.Windows)
	}
	second := series[1]
	if second.Policy != "second" || second.Seed != 2 || !second.Ended {
		t.Fatalf("second run header %+v", second)
	}
	if len(second.Windows) != 1 || second.Windows[0].Blocked != 1 {
		t.Fatalf("second run windows %+v", second.Windows)
	}
}

// TestFolderShiftEmission attaches a detector and a sink and checks a
// sustained high-blocking episode emits one typed regime-shift event
// through obs.Emit, with the regimes on the wire fields.
func TestFolderShiftEmission(t *testing.T) {
	ring := obs.NewRing(16)
	var cbRun = -1
	var cbShift RegimeShift
	f, err := New(Options{
		Width:    1,
		Detector: &DetectorConfig{Low: 0.02, High: 0.15, Dwell: 2},
		Sink:     ring,
		OnShift:  func(run int, s RegimeShift) { cbRun, cbShift = run, s },
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.Emit(f, &obs.Event{Kind: obs.KindRunStart, Policy: "p", Seed: 1})
	for i := 0; i < 3; i++ {
		at := float64(i) + 0.5
		obs.Emit(f, &obs.Event{Kind: obs.KindCallOffered, Time: at})
		obs.Emit(f, &obs.Event{Kind: obs.KindCallBlocked, Time: at})
	}
	obs.Emit(f, &obs.Event{Kind: obs.KindRunEnd, Time: 3})

	if n := f.Shifts(); n != 1 {
		t.Fatalf("Shifts() = %d, want 1", n)
	}
	emitted := ring.Events()
	if len(emitted) != 1 {
		t.Fatalf("%d emitted events, want 1: %+v", len(emitted), emitted)
	}
	e := emitted[0]
	if e.Kind != obs.KindRegimeShift || e.Window != 1 || e.Time != 2 ||
		e.From != "unknown" || e.To != "high" || e.Offered != 1 || e.Blocked != 1 {
		t.Fatalf("shift event = %+v", e)
	}
	if cbRun != 0 || cbShift.To != RegimeHigh || cbShift.Window != 1 {
		t.Fatalf("OnShift got run %d, shift %+v", cbRun, cbShift)
	}
	series := f.Series()
	if len(series) != 1 || len(series[0].Shifts) != 1 || series[0].Shifts[0] != cbShift {
		t.Fatalf("series shifts = %+v", series)
	}
}

// TestFolderLatestAndCollectProm covers the live accessors: Latest returns
// the most recent closed window, and CollectProm writes valid exposition
// with the window gauges.
func TestFolderLatestAndCollectProm(t *testing.T) {
	f, err := New(Options{Width: 1, Detector: &DetectorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.Latest(); ok {
		t.Fatal("Latest() reported a window before any closed")
	}
	var buf bytes.Buffer
	p := obs.NewPromWriter(&buf)
	f.CollectProm(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("pre-window exposition invalid: %v\n%s", err, buf.String())
	}

	obs.Emit(f, &obs.Event{Kind: obs.KindRunStart, Policy: "p", Seed: 1})
	obs.Emit(f, &obs.Event{Kind: obs.KindCallOffered, Time: 0.5})
	obs.Emit(f, &obs.Event{Kind: obs.KindCallAdmitted, Time: 0.5, Hops: 1})
	obs.Emit(f, &obs.Event{Kind: obs.KindLinkOccupancy, Time: 0.5, Link: 1, Occupancy: 2})
	obs.Emit(f, &obs.Event{Kind: obs.KindCallOffered, Time: 1.5})

	run, w, ok := f.Latest()
	if !ok || run != 0 || w.Index != 0 || w.Offered != 1 || w.Accepted != 1 {
		t.Fatalf("Latest() = %d, %+v, %v", run, w, ok)
	}
	if len(w.LinkUtil) != 2 || w.LinkUtil[1] != 1.0 {
		t.Fatalf("Latest LinkUtil = %v, want [0 1]", w.LinkUtil)
	}

	buf.Reset()
	p = obs.NewPromWriter(&buf)
	f.CollectProm(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateProm(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"altroute_window_index 0\n",
		"altroute_window_offered 1\n",
		"altroute_window_blocking 0\n",
		`altroute_window_link_utilization{link="1"} 1` + "\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q\n%s", want, buf.String())
		}
	}
}

func TestNewRejectsZeroWidth(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted zero width")
	}
	if _, err := FoldEvents(nil, Options{Width: -1}); err == nil {
		t.Fatal("FoldEvents accepted negative width")
	}
}

// --- Golden bit-identity -----------------------------------------------------

// recordSink appends every event to a slice.
type recordSink struct {
	events []obs.Event
}

func (s *recordSink) Event(e *obs.Event) { s.events = append(s.events, *e) }

// jsonlBytes serializes a stream the way `altsim -events` does.
func jsonlBytes(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	for _, e := range events {
		sink.Event(&e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTimeseriesBitIdentity is this PR's determinism guarantee: a
// quadrangle sweep with a Folder attached beside the recording sink (with
// an active detector, but no shift re-emission into the stream) produces a
// sweep and a JSONL event stream bit-identical to the bare run, at
// GOMAXPROCS 1 and 8. Attaching telemetry observes the stream; it never
// perturbs it.
func TestGoldenTimeseriesBitIdentity(t *testing.T) {
	loads := []float64{85, 95}
	base := experiments.SimParams{Seeds: 2, Warmup: 1, Horizon: 6}

	bare := base
	bareSink := &recordSink{}
	bare.Sink = bareSink
	want, err := experiments.Quadrangle(loads, 0, bare)
	if err != nil {
		t.Fatal(err)
	}
	wantJSONL := jsonlBytes(t, bareSink.events)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 8} {
		runtime.GOMAXPROCS(gmp)
		label := fmt.Sprintf("gomaxprocs=%d", gmp)

		folder, err := New(Options{Width: 1, Capacity: 64, Detector: &DetectorConfig{}})
		if err != nil {
			t.Fatal(err)
		}
		attached := base
		sink := &recordSink{}
		attached.Sink = obs.Multi(sink, folder)
		got, err := experiments.Quadrangle(loads, 0, attached)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		if len(got.Series) != len(want.Series) {
			t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
		}
		for i := range want.Series {
			gs, ws := got.Series[i], want.Series[i]
			if gs.Name != ws.Name || len(gs.Points) != len(ws.Points) {
				t.Fatalf("%s: series %d header mismatch", label, i)
			}
			for j := range ws.Points {
				gp, wp := gs.Points[j], ws.Points[j]
				if math.Float64bits(gp.X) != math.Float64bits(wp.X) ||
					math.Float64bits(gp.Y) != math.Float64bits(wp.Y) ||
					math.Float64bits(gp.Err) != math.Float64bits(wp.Err) {
					t.Fatalf("%s: %s[%d] = %+v, want %+v", label, ws.Name, j, gp, wp)
				}
			}
		}
		if len(sink.events) != len(bareSink.events) {
			t.Fatalf("%s: %d events, want %d", label, len(sink.events), len(bareSink.events))
		}
		for i := range bareSink.events {
			if sink.events[i] != bareSink.events[i] {
				t.Fatalf("%s: event %d = %+v, want %+v", label, i, sink.events[i], bareSink.events[i])
			}
		}
		if !bytes.Equal(jsonlBytes(t, sink.events), wantJSONL) {
			t.Fatalf("%s: JSONL bytes diverge with the folder attached", label)
		}

		// The folder really observed the stream: every run folded, with
		// windows, and the quadrangle's four links integrated.
		series := folder.Series()
		if len(series) == 0 {
			t.Fatalf("%s: folder saw no runs", label)
		}
		for _, r := range series {
			if !r.Ended || len(r.Windows) == 0 {
				t.Fatalf("%s: unfinished run series %+v", label, r)
			}
		}
	}
}

// TestConcurrentScrape folds a stream on one producer goroutine while the
// snapshot accessors — the /metrics scrape path — hammer the Folder from
// another. It exists for the race detector: the per-event hot path is
// lock-free, so this proves the boundary publication discipline.
func TestConcurrentScrape(t *testing.T) {
	f, err := New(Options{Width: 1, Capacity: 8, Detector: &DetectorConfig{Dwell: 1}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			f.Series()
			f.Latest()
			f.Shifts()
			f.CollectProm(obs.NewPromWriter(io.Discard))
		}
	}()
	for run := 0; run < 4; run++ {
		f.Event(&obs.Event{Kind: obs.KindRunStart, Policy: "p", Seed: int64(run)})
		for i := 0; i < 5000; i++ {
			at := float64(i) * 0.005
			f.Event(&obs.Event{Kind: obs.KindCallOffered, Time: at})
			f.Event(&obs.Event{Kind: obs.KindCallBlocked, Time: at})
			f.Event(&obs.Event{Kind: obs.KindLinkOccupancy, Time: at, Link: i % 3, Occupancy: i % 7})
		}
		f.Event(&obs.Event{Kind: obs.KindRunEnd, Time: 25})
	}
	close(done)
	wg.Wait()
	if got := len(f.Series()); got != 4 {
		t.Fatalf("%d runs folded, want 4", got)
	}
}
