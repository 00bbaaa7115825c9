// Package timeseries folds the simulator's typed event stream into
// fixed-width windowed time series: per-window offered/blocked counts and
// blocking probability, alternate-vs-primary carried share, failure and
// reroute rates, and per-link time-averaged occupancy integrated from
// occupancy samples. It works streaming — a Folder is an obs.Sink attached
// to a live run — or offline over events re-read from a JSONL trace
// (FoldEvents, the engine behind cmd/alttrace).
//
// Windows are derived from event timestamps alone, not from the simulator's
// own window-closed markers, so any trace folds at any width and offline
// folds agree with live ones byte for byte. The series is dense: windows
// with no events still close (and reach the regime detector as no-signal),
// so window index k always covers [Origin+k·W, Origin+(k+1)·W). All
// arrivals count, warm-up included — the series is telemetry over the whole
// run, unlike sim.Result's measured-only counters (obs.Aggregate remains
// the lossless Result reconstruction).
//
// On top of the series sits a two-level hysteresis detector (DetectorConfig)
// that classifies windowed blocking into low/high regimes with dwell-time
// debouncing and emits typed regime-shift records — the measurement
// primitive for the bistable mode-switching the paper's trunk reservation
// exists to suppress.
//
// Like the rest of the obs layer the package is allocation-light on the hot
// path: the per-run window ring and the per-link integration scratch are
// preallocated and reused, so an attached Folder costs little over any
// other sink: BENCH.json records BenchmarkRunTimeseries against
// BenchmarkRunInstrumented.
package timeseries

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Options configures a Folder. Width is required; everything else defaults.
type Options struct {
	// Width is the window length in simulated time units (required, > 0).
	Width float64
	// Origin is window 0's start epoch (default 0). Events before Origin
	// fold into window 0.
	Origin float64
	// Capacity bounds the retained windows per run: 0 retains every window
	// (offline folds), n > 0 keeps a ring of the last n closed windows and
	// counts evictions in RunSeries.DroppedWindows (live monitoring).
	Capacity int
	// Links hints the number of links, presizing the occupancy-integration
	// scratch; the tables grow on demand regardless.
	Links int
	// Detector, when non-nil, attaches a regime detector (fresh per run)
	// with the given thresholds; zero fields take defaults.
	Detector *DetectorConfig
	// Sink receives derived obs.KindRegimeShift events for every confirmed
	// shift, folding regime history back into the event stream. May be nil.
	Sink obs.Sink
	// OnWindow, when non-nil, is called with every closed window. It runs
	// synchronously on the folding goroutine and must not deliver further
	// events to the Folder.
	OnWindow func(run int, w Window)
	// OnShift is OnWindow's analogue for confirmed regime shifts.
	OnShift func(run int, s RegimeShift)
}

// Window is one closed fixed-width window of a run's series. Counts cover
// every event with a timestamp in [Start, End), warm-up included.
type Window struct {
	// Index is the window's position: window k covers
	// [Origin+k·W, Origin+(k+1)·W).
	Index int `json:"window"`
	// Start and End delimit the window. End is the nominal boundary except
	// for Partial windows, where it is the run-end epoch.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Offered and Blocked count call arrivals and losses in the window.
	Offered int64 `json:"offered"`
	Blocked int64 `json:"blocked"`
	// Accepted splits into PrimaryAccepted and AlternateAccepted by carried
	// path; CarriedHops sums their path lengths.
	Accepted          int64 `json:"accepted"`
	PrimaryAccepted   int64 `json:"primary"`
	AlternateAccepted int64 `json:"alternate"`
	CarriedHops       int64 `json:"carried_hops"`
	// Departed counts call teardowns at holding-time expiry.
	Departed int64 `json:"departed"`
	// LostToFailure, FailureRerouted, LinkDowns and LinkUps count the
	// failure-model events (see DESIGN.md §11).
	LostToFailure   int64 `json:"lost_failure"`
	FailureRerouted int64 `json:"rerouted"`
	LinkDowns       int64 `json:"link_downs"`
	LinkUps         int64 `json:"link_ups"`
	// Events counts every folded event in the window (occupancy samples
	// included; run delimiters excluded).
	Events int64 `json:"events"`
	// LinkUtil is the per-link time-averaged occupancy over the window, in
	// calls, integrated from occupancy samples with segment splitting at
	// window boundaries; nil when the run carries no occupancy samples.
	LinkUtil []float64 `json:"link_util,omitempty"`
	// Partial marks a window cut short by the run's end; its End is the
	// run-end epoch and its averages cover only [Start, End).
	Partial bool `json:"partial,omitempty"`
}

// Blocking returns the window's blocking probability, NaN when no calls
// were offered (undefined, not zero — mirrors sim.Result).
func (w Window) Blocking() float64 {
	if w.Offered == 0 {
		return math.NaN()
	}
	return float64(w.Blocked) / float64(w.Offered)
}

// AlternateShare returns the alternate-routed fraction of the window's
// carried calls, NaN when none were carried.
func (w Window) AlternateShare() float64 {
	if w.Accepted == 0 {
		return math.NaN()
	}
	return float64(w.AlternateAccepted) / float64(w.Accepted)
}

// RunSeries is one run's folded series: its closed windows oldest-first and
// the regime shifts confirmed over them.
type RunSeries struct {
	// Run is the run's 0-based position in the stream.
	Run int `json:"run"`
	// Policy and Seed identify the run (from its run-start event; empty for
	// an anonymous leading run).
	Policy string `json:"policy,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Windows holds the retained closed windows oldest-first;
	// DroppedWindows counts older ones evicted by Options.Capacity.
	Windows        []Window `json:"windows"`
	DroppedWindows int      `json:"dropped_windows,omitempty"`
	// Shifts are the run's confirmed regime shifts in confirmation order.
	Shifts []RegimeShift `json:"shifts,omitempty"`
	// Ended reports that the run's run-end event was seen.
	Ended bool `json:"ended"`
}

// runState is the mutable series of one run.
type runState struct {
	policy  string
	seed    int64
	windows []Window // ring when Capacity > 0, else append-only
	start   int      // ring read position
	dropped int
	shifts  []RegimeShift
	ended   bool
	det     *detector
}

// Folder folds an event stream into windowed series. It implements
// obs.Sink and may observe several runs in sequence (runs are delimited by
// run-start events; a stream that begins mid-run folds into an anonymous
// leading run, matching obs.Aggregate).
//
// A Folder is a single-producer sink: Event must be called from one
// goroutine at a time — which the obs delivery contract already guarantees
// (the simulator's event loop is sequential, and the parallel experiment
// engine serializes sink deliveries through its ordered buffer flush). The
// snapshot accessors (Series, Latest, Shifts, CollectProm) are safe to call
// concurrently with the producer: the hot per-event path touches only
// producer-owned scratch, and the shared series state is published under the
// Folder's lock at window boundaries.
type Folder struct {
	opt Options

	// Producer-owned hot state: the open window, the current run's folding
	// position, and the per-link occupancy-integration scratch. Touched on
	// every event with no locking; never read by the snapshot accessors.
	cur   *runState
	win   Window // open window of the current run
	open  bool
	lastT float64 // latest event epoch of the current run

	// counts is the open window's per-kind event tally (indexed by Kind,
	// masked into range); altHot and hopsHot accumulate the admitted-call
	// split and hop sum. flushCounts folds all three into the named Window
	// fields at window close — keeping the per-event cost to one indexed
	// increment for most kinds.
	counts  [16]int64
	altHot  int64
	hopsHot int64

	// occ is the last sampled occupancy per link, occT its epoch, util the
	// accumulated occupancy·time inside the open window. The scratch is
	// reused across runs; maxLink is the highest link seen this run (-1 when
	// none).
	occ     []int64
	occT    []float64
	util    []float64
	maxLink int

	// runIdx is the producer's copy of the current run's index.
	runIdx int
	// shiftEv is the producer's one reusable event for regime-shift
	// emission (Options.Sink).
	shiftEv obs.Event

	// Shared state, guarded by mu: mutated only at run and window
	// boundaries, read by the snapshot accessors.
	mu          sync.Mutex
	series      []*runState
	curShared   *runState // current run as the accessors see it (nil between runs)
	lastRun     int       // run index of the most recently closed window
	lastWin     Window    // the window itself
	hasLast     bool
	shiftsTotal int64
}

// New returns a Folder for the given options.
func New(opt Options) (*Folder, error) {
	if !(opt.Width > 0) {
		return nil, fmt.Errorf("timeseries: window width must be positive, got %v", opt.Width)
	}
	f := &Folder{opt: opt, maxLink: -1}
	if opt.Links > 0 {
		f.occ = make([]int64, opt.Links)
		f.occT = make([]float64, opt.Links)
		f.util = make([]float64, opt.Links)
	}
	return f, nil
}

// FoldEvents folds a complete event slice (as returned by obs.ReadJSONL)
// into per-run series — the offline entry point used by cmd/alttrace. The
// trailing run is finalized even without a run-end event, its last window
// closing at the last event's epoch.
func FoldEvents(events []obs.Event, opt Options) ([]RunSeries, error) {
	f, err := New(opt)
	if err != nil {
		return nil, err
	}
	for i := range events {
		f.Event(&events[i])
	}
	f.endRun()
	return f.Series(), nil
}

// Event implements obs.Sink: it folds one event into the series on the
// producer goroutine, never retaining or mutating it. The hot path is
// lock-free — it touches only producer-owned state; the lock is taken when
// a window closes or a run starts or ends.
//
//altlint:hotpath
func (f *Folder) Event(e *obs.Event) {
	if e.Kind == obs.KindRunStart {
		f.endRun()
		f.startRun(e.Policy, e.Seed)
		return
	}
	if f.cur == nil {
		// Stream began mid-run: fold into an anonymous leading run.
		f.startRun("", 0)
	}
	if f.open && e.Time >= f.win.End {
		// Out-of-line: closes every window the stream has moved past.
		f.advance(e.Time)
	}
	if e.Time > f.lastT {
		f.lastT = e.Time
	}
	if e.Kind == obs.KindRunEnd {
		f.finishRun(e.Time)
		return
	}
	// One masked indexed increment covers every kind; only admissions and
	// occupancy samples carry extra payload. KindWindowClosed and
	// KindRegimeShift records in the input only count into Events: windows
	// are derived from timestamps so any trace folds at any width, and
	// embedded shifts are re-derived by the detector rather than trusted.
	f.counts[int(e.Kind)&15]++
	switch e.Kind {
	case obs.KindCallAdmitted:
		f.hopsHot += int64(e.Hops)
		if e.Alternate {
			f.altHot++
		}
	case obs.KindLinkOccupancy:
		f.sample(e.Time, e.Link, e.Occupancy)
	}
}

// flushCounts folds the per-kind tallies into the open window's named
// fields and zeroes them. Idempotent between events; called at window close
// and before run-end emptiness checks.
//
//altlint:hotpath
func (f *Folder) flushCounts() {
	c := &f.counts
	var total int64
	for _, n := range c {
		total += n
	}
	if total == 0 && f.altHot == 0 && f.hopsHot == 0 {
		return
	}
	w := &f.win
	w.Events += total
	w.Offered += c[obs.KindCallOffered]
	w.Blocked += c[obs.KindCallBlocked]
	admitted := c[obs.KindCallAdmitted]
	w.Accepted += admitted
	w.AlternateAccepted += f.altHot
	w.PrimaryAccepted += admitted - f.altHot
	w.CarriedHops += f.hopsHot
	w.Departed += c[obs.KindCallDeparted]
	w.LostToFailure += c[obs.KindCallLostFailure]
	w.FailureRerouted += c[obs.KindCallRerouted]
	w.LinkDowns += c[obs.KindLinkDown]
	w.LinkUps += c[obs.KindLinkUp]
	*c = [16]int64{}
	f.altHot, f.hopsHot = 0, 0
}

// startRun opens a fresh run and its window 0.
func (f *Folder) startRun(policy string, seed int64) {
	r := &runState{policy: policy, seed: seed}
	if f.opt.Detector != nil {
		r.det = newDetector(*f.opt.Detector)
	}
	if f.opt.Capacity > 0 {
		r.windows = make([]Window, 0, f.opt.Capacity)
	}
	f.cur = r
	f.win = Window{Start: f.opt.Origin, End: f.opt.Origin + f.opt.Width}
	f.open = true
	f.lastT = f.opt.Origin
	f.counts = [16]int64{}
	f.altHot, f.hopsHot = 0, 0
	for l := 0; l <= f.maxLink; l++ {
		f.occ[l], f.occT[l], f.util[l] = 0, f.opt.Origin, 0
	}
	f.maxLink = -1
	f.mu.Lock()
	f.series = append(f.series, r)
	f.runIdx = len(f.series) - 1
	f.curShared = r
	f.mu.Unlock()
}

// endRun finalizes the current run (if any) without a run-end event,
// closing its open window at the last observed epoch. Ended stays false —
// no run-end event was seen.
func (f *Folder) endRun() {
	if f.cur == nil {
		return
	}
	f.advance(f.lastT)
	f.flushCounts()
	if f.open && f.win.Events > 0 {
		f.win.Partial = true
		f.closeWindow(f.lastT)
	}
	f.open = false
	f.cur = nil
	f.mu.Lock()
	f.curShared = nil
	f.mu.Unlock()
}

// finishRun closes the run at epoch t: complete windows close normally and
// an in-progress window with events closes as Partial ending at t (an empty
// in-progress window is dropped — the run produced nothing there).
func (f *Folder) finishRun(t float64) {
	f.advance(t)
	f.flushCounts()
	if f.open && f.win.Events > 0 {
		f.win.Partial = true
		f.closeWindow(t)
	}
	f.open = false
	r := f.cur
	f.cur = nil
	f.mu.Lock()
	r.ended = true
	f.curShared = nil
	f.mu.Unlock()
}

// advance closes every window that ends at or before t and opens the next,
// keeping the series dense: intermediate empty windows close too (the
// detector sees them as no-signal).
func (f *Folder) advance(t float64) {
	for f.open && t >= f.win.End {
		idx, end := f.win.Index, f.win.End
		f.closeWindow(end)
		f.win = Window{Index: idx + 1, Start: end, End: end + f.opt.Width}
	}
}

// closeWindow finalizes the open window at epoch end: the occupancy
// integral is extended to end, the window appended to the run's ring, the
// detector consulted, and callbacks and shift events dispatched.
func (f *Folder) closeWindow(end float64) {
	f.flushCounts()
	w := &f.win
	w.End = end
	if f.maxLink >= 0 {
		span := end - w.Start
		w.LinkUtil = make([]float64, f.maxLink+1)
		for l := 0; l <= f.maxLink; l++ {
			last := f.occT[l]
			if last < w.Start {
				last = w.Start
			}
			if seg := end - last; seg > 0 && f.occ[l] != 0 {
				f.util[l] += seg * float64(f.occ[l])
			}
			// occT is deliberately not advanced: the next window's
			// integration clamps it to its own Start, splitting the
			// in-flight segment at the boundary.
			if span > 0 {
				w.LinkUtil[l] = f.util[l] / span
			}
			f.util[l] = 0
		}
	}
	r, run := f.cur, f.runIdx
	var shift RegimeShift
	shifted := false
	f.mu.Lock()
	if f.opt.Capacity > 0 && len(r.windows) == f.opt.Capacity {
		r.windows[r.start] = *w
		r.start = (r.start + 1) % f.opt.Capacity
		r.dropped++
	} else {
		r.windows = append(r.windows, *w)
	}
	f.lastRun, f.lastWin, f.hasLast = run, *w, true
	if r.det != nil {
		if s, ok := r.det.observe(w.Index, end, w.Blocking()); ok {
			r.shifts = append(r.shifts, s)
			f.shiftsTotal++
			shift, shifted = s, true
		}
	}
	f.mu.Unlock()
	if f.opt.OnWindow != nil {
		f.opt.OnWindow(run, *w)
	}
	if shifted {
		ev := f.shiftEv.Reset(obs.KindRegimeShift, shift.Time)
		ev.Window, ev.Offered, ev.Blocked = shift.Window, w.Offered, w.Blocked
		ev.From, ev.To = shift.From.String(), shift.To.String()
		obs.Emit(f.opt.Sink, ev)
		if f.opt.OnShift != nil {
			f.opt.OnShift(run, shift)
		}
	}
}

// sample integrates one occupancy sample: the elapsed segment since the
// link's previous sample (clamped to the open window's start) accrues at
// the previous occupancy.
func (f *Folder) sample(t float64, link, occ int) {
	if link < 0 {
		link = 0
	}
	f.ensureLink(link)
	last := f.occT[link]
	if last < f.win.Start {
		last = f.win.Start
	}
	if seg := t - last; seg > 0 && f.occ[link] != 0 {
		f.util[link] += seg * float64(f.occ[link])
	}
	f.occT[link] = t
	f.occ[link] = int64(occ)
}

// ensureLink grows the integration scratch to cover link.
func (f *Folder) ensureLink(link int) {
	for len(f.occ) <= link {
		f.occ = append(f.occ, 0)
		f.occT = append(f.occT, f.opt.Origin)
		f.util = append(f.util, 0)
	}
	if link > f.maxLink {
		// Links first seen mid-run integrate from the run's origin at
		// occupancy 0, which is exactly the simulator's initial state.
		f.maxLink = link
	}
}

// Series snapshots every observed run oldest-first. Windows are deep
// copies; the current in-progress window is not included until it closes.
func (f *Folder) Series() []RunSeries {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RunSeries, len(f.series))
	for i, r := range f.series {
		wins := make([]Window, 0, len(r.windows))
		n := len(r.windows)
		for k := 0; k < n; k++ {
			w := r.windows[(r.start+k)%n]
			if w.LinkUtil != nil {
				w.LinkUtil = append([]float64(nil), w.LinkUtil...)
			}
			wins = append(wins, w)
		}
		out[i] = RunSeries{
			Run:            i,
			Policy:         r.policy,
			Seed:           r.seed,
			Windows:        wins,
			DroppedWindows: r.dropped,
			Shifts:         append([]RegimeShift(nil), r.shifts...),
			Ended:          r.ended,
		}
	}
	return out
}

// Latest returns the most recently closed window and its run index; ok is
// false before any window has closed.
func (f *Folder) Latest() (run int, w Window, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.hasLast {
		return 0, Window{}, false
	}
	w = f.lastWin
	if w.LinkUtil != nil {
		w.LinkUtil = append([]float64(nil), w.LinkUtil...)
	}
	return f.lastRun, w, true
}

// Shifts returns the total confirmed regime shifts across all runs.
func (f *Folder) Shifts() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shiftsTotal
}

// CollectProm implements obs.PromCollector: live gauges over the latest
// closed window (index, counts, blocking, alternate share, per-link
// utilization), the current confirmed regime, and shift/run totals — the
// series' contribution to the /metrics exposition.
func (f *Folder) CollectProm(p *obs.PromWriter) {
	f.mu.Lock()
	runs := int64(len(f.series))
	shifts := f.shiftsTotal
	hasLast, lastRun, w := f.hasLast, f.lastRun, f.lastWin
	util := append([]float64(nil), w.LinkUtil...)
	regime := RegimeUnknown
	if f.curShared != nil && f.curShared.det != nil {
		regime = f.curShared.det.cur
	}
	f.mu.Unlock()

	p.Counter("altroute_series_runs_total", "Runs observed by the time-series folder.", runs)
	p.Counter("altroute_regime_shifts_total", "Confirmed windowed-blocking regime shifts across runs.", shifts)
	p.Gauge("altroute_regime", "Current confirmed regime of the live run (0 unknown, 1 low, 2 high).", float64(regime))
	if !hasLast {
		return
	}
	p.Gauge("altroute_window_run", "Run index of the latest closed window.", float64(lastRun))
	p.Gauge("altroute_window_index", "Index of the latest closed window.", float64(w.Index))
	p.Gauge("altroute_window_offered", "Calls offered in the latest closed window.", float64(w.Offered))
	p.Gauge("altroute_window_blocked", "Calls blocked in the latest closed window.", float64(w.Blocked))
	if w.Offered > 0 {
		p.Gauge("altroute_window_blocking", "Blocking probability of the latest closed window.", w.Blocking())
	}
	if w.Accepted > 0 {
		p.Gauge("altroute_window_alternate_share", "Alternate-routed share of calls carried in the latest closed window.", w.AlternateShare())
	}
	if len(util) > 0 {
		p.Header("altroute_window_link_utilization", "Time-averaged occupancy per link over the latest closed window, in calls.", "gauge")
		for l, u := range util {
			p.Sample("altroute_window_link_utilization", obs.PromLabel("link", strconv.Itoa(l)), u)
		}
	}
}
