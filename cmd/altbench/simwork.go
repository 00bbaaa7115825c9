package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"

	altroute "repro"
	"repro/internal/bound"
	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Workload sizes. Each workload runs at a load where calls are blocked and
// alternates carry traffic, so the paper's control rule is exercised; see
// README.md for the measured blocking of each.
const (
	warmup = 10.0 // the paper's warm-up, every simulator workload

	nsfnetH       = 11     // the paper's unlimited alternates on NSFNet
	replayHorizon = 1010.0 // ~780k calls at ~15 % blocking

	metroPops, metroPopSize     = 50, 4 // 200 nodes, 39.8k O-D pairs
	metroIntraCap, metroTrunkCp = 30, 60
	metroIntra, metroInter      = 24.0, 0.006 // ~3.5 % blocking, ~1.6 % cross-pop calls
	metroH                      = 2
	metroHorizon                = 100.0

	sweepHorizon = 110.0 // the sweep's default: 10 warm-up + 100 measured
	// One seed per load point keeps a sweep near 2 s, so a run times about
	// ten of them; the default ten seeds take ~12 s each.
	sweepSeeds    = 1
	sweepPolicies = 3 // single-path, uncontrolled, controlled

	// Fresh processes per run, each one set-up and one operation: the
	// medians of their set-up times and peak RSS are setup_s and
	// peak_rss_mb.
	replayChildren, metroChildren, figureChildren = 5, 3, 3
)

func nsfnet() (*graph.Graph, *traffic.Matrix, error) {
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		return nil, nil, err
	}
	return netmodel.NSFNet(), m, nil
}

// childReport is what one child process measured: its cold set-up time
// in CPU and wall seconds, its peak RSS, and its operation's output for
// the parent's checks.
type childReport struct {
	SetupS     float64  `json:"setup_s"`
	SetupWallS float64  `json:"setup_wall_s"`
	RSSMB      float64  `json:"rss_mb"`
	Counters   counters `json:"counters"`
	Digest     string   `json:"digest,omitempty"`
	Calls      float64  `json:"calls,omitempty"`
	// factor is the host factor the parent measured as the child exited.
	factor float64
}

func (k *childReport) setup(took elapsed) {
	k.SetupS, k.SetupWallS = took.cpu.Seconds(), took.wall.Seconds()
}

// simOp is one timed operation of a simulator workload: it reports the
// calls it simulated and how long the public call it timed took.
type simOp func(i int, tr *tracer) (calls float64, took elapsed, err error)

// pass is one timed loop's samples: wall times; calls per CPU-second, with
// the CPU time divided by the host factor and as measured; calls per
// wall-second; and the host factors.
type pass struct {
	wallsMs, rates, cpuRates, wallRates, factors []float64
	attempted, failed                            int
	firstErr                                     error
}

// timedPass repeats op for seconds, measuring the host factor after each
// operation. It runs on one processor, as the child processes do: the
// operations are single-threaded, and a collector marking on the second
// core would contend with the operation for the core's caches.
func timedPass(seconds float64, minReps int, tr *tracer, ref *reference, op simOp) pass {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p pass
	p.attempted, p.failed, p.firstErr = repeat(seconds, minReps, func(i int) error {
		// Every operation starts from a collected heap, so whether a
		// collection cycle falls inside it does not depend on the last one.
		runtime.GC()
		calls, took, err := op(i, tr)
		if err != nil {
			return err
		}
		f := ref.factor()
		rate := calls / took.cpu.Seconds()
		p.wallsMs = append(p.wallsMs, took.wall.Seconds()*1e3)
		p.rates = append(p.rates, rate*f)
		p.cpuRates = append(p.cpuRates, rate)
		p.wallRates = append(p.wallRates, calls/took.wall.Seconds())
		p.factors = append(p.factors, f)
		return nil
	})
	return p
}

// simE2E measures a simulator workload: untraced, one pass of e.seconds
// whose samples become ops_per_s, with the children's set-up times and
// peak RSS; traced, an untraced and a traced pass of half that each, whose
// ratio of median wall times is trace.overhead_ratio.
func simE2E(e *env, r *result, minReps int, kids []childReport, op simOp, vals map[string]float64) pass {
	record := func(p pass) {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.check("operations", p.failed == 0, "%d of %d failed, first: %v", p.failed, p.attempted, p.firstErr)
	}
	if e.tr == nil {
		p := timedPass(e.seconds, minReps, nil, e.ref, op)
		record(p)
		var setups, setupCPUs, setupWalls, rss []float64
		for _, k := range kids {
			setups = append(setups, k.SetupS/k.factor)
			setupCPUs = append(setupCPUs, k.SetupS)
			setupWalls = append(setupWalls, k.SetupWallS)
			rss = append(rss, k.RSSMB)
		}
		r.E2E = append(r.E2E,
			newMetric("setup_s", "s", setups...),
			newMetric("peak_rss_mb", "MB", rss...),
			newMetric("ops_per_s", "1/s", p.rates...))
		r.Detail = append(r.Detail,
			newMetric("setup_cpu_s", "s", setupCPUs...),
			newMetric("setup_wall_s", "s", setupWalls...),
			newMetric("ops_per_cpu_s", "1/s", p.cpuRates...),
			newMetric("ops_per_wall_s", "1/s", p.wallRates...),
			newMetric("host_factor", "ratio", p.factors...))
		return p
	}
	p := timedPass(e.seconds/2, minReps, nil, e.ref, op)
	record(p)
	pt := timedPass(e.seconds/2, minReps, e.tr, e.ref, op)
	record(pt)
	vals["trace.overhead_ratio"] = median(pt.wallsMs) / median(p.wallsMs)
	return p
}

func sameResult(a, b *sim.Result) bool { return reflect.DeepEqual(a, b) }

// checkRepeats checks that every child process computed what the parent's
// first run did.
func checkRepeats(r *result, kids []childReport, first *sim.Result) {
	want := countersOf(first)
	for i, k := range kids {
		r.check(fmt.Sprintf("repeat run identical (process %d)", i), k.Counters == want, "got %+v, want %+v", k.Counters, want)
	}
}

// checkLoad asserts the workload runs where the control rule matters.
func checkLoad(r *result, res *sim.Result) {
	r.check("calls blocked and alternates used", res.Blocked > 0 && res.AlternateAccepted > 0,
		"blocked %d, alternate-carried %d", res.Blocked, res.AlternateAccepted)
}

func checkPinned(r *result, seed int64, res *sim.Result, want counters) {
	if seed != expected.Seed {
		return
	}
	got := countersOf(res)
	r.check("default-seed counters", got == want, "got %+v, want %+v", got, want)
}

// ---- nsfnet-replay ---------------------------------------------------

type replayCase struct {
	g      *graph.Graph
	m      *traffic.Matrix
	scheme *core.Scheme
	trace  *sim.Trace
}

func setupReplay(seed int64) (*replayCase, error) {
	g, m, err := nsfnet()
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(g, m, core.Options{H: nsfnetH})
	if err != nil {
		return nil, err
	}
	return &replayCase{g: g, m: m, scheme: scheme, trace: sim.GenerateTrace(m, replayHorizon, seed)}, nil
}

func (c *replayCase) config() sim.Config {
	return sim.Config{Graph: c.g, Policy: c.scheme.Controlled(), Trace: c.trace, Warmup: warmup}
}

func childReplay(seed int64) (childReport, error) {
	w := startWatch()
	c, err := setupReplay(seed)
	if err != nil {
		return childReport{}, err
	}
	var k childReport
	k.setup(w.stop())
	res, err := sim.Run(c.config())
	if err != nil {
		return childReport{}, err
	}
	k.Counters = countersOf(res)
	return k, nil
}

func runReplay(e *env) (*result, error) {
	r := &result{Workload: "nsfnet-replay"}
	kids, err := children(e, r.Workload, replayChildren)
	if err != nil {
		return nil, err
	}
	c, err := setupReplay(e.seed)
	if err != nil {
		return nil, err
	}
	cfg := c.config()
	var first *sim.Result
	vals := map[string]float64{}
	simE2E(e, r, 5, kids, func(i int, tr *tracer) (float64, elapsed, error) {
		s := tr.begin(tr.layer("sim.Run"), -1, int64(i))
		w := startWatch()
		res, err := sim.Run(cfg)
		took := w.stop()
		tr.end(s)
		if err != nil {
			return 0, elapsed{}, err
		}
		if first == nil {
			first = res
		} else if !sameResult(res, first) {
			return 0, elapsed{}, fmt.Errorf("run %d: Result differs from run 0", i)
		}
		return float64(res.Offered), took, nil
	}, vals)
	if first == nil {
		return nil, fmt.Errorf("no run succeeded")
	}

	st, err := sim.NewStream(c.m, replayHorizon, e.seed)
	if err != nil {
		return nil, err
	}
	streamCfg := cfg
	streamCfg.Trace, streamCfg.Source = nil, st
	streamed, err := sim.Run(streamCfg)
	if err != nil {
		return nil, err
	}
	r.check("stream-fed run equals trace-fed run", sameResult(streamed, first), "stream %+v, trace %+v", countersOf(streamed), countersOf(first))
	checkRepeats(r, kids, first)
	checkLoad(r, first)
	checkPinned(r, e.seed, first, expected.Replay)

	if e.tr != nil {
		vals["trace.clock_ns"] = e.tr.clockCost()
		err := probeScenario(e.tr, vals, probeCase{g: c.g, m: c.m, h: nsfnetH, trace: c.trace, seed: e.seed})
		if err != nil {
			return nil, err
		}
		r.setLayers(vals)
	}
	return r, nil
}

// ---- metro-stream ----------------------------------------------------

type metroCase struct {
	g      *graph.Graph
	m      *traffic.Matrix
	scheme *core.Scheme
}

func newMetroCase() (*metroCase, error) {
	g := netmodel.Metro(metroPops, metroPopSize, metroIntraCap, metroTrunkCp)
	m := traffic.MetroLocality(metroPops, metroPopSize, metroIntra, metroInter)
	scheme, err := core.New(g, m, core.Options{H: metroH})
	if err != nil {
		return nil, err
	}
	return &metroCase{g: g, m: m, scheme: scheme}, nil
}

func (c *metroCase) stream(seed int64) (*sim.Stream, error) {
	return sim.NewStream(c.m, metroHorizon, seed)
}

// run simulates one metro run from st into a fresh folder, timing only
// sim.Run, and checks the folder's measured offered count against the
// Result's.
func (c *metroCase) run(st *sim.Stream, tr *tracer, req int64) (*sim.Result, elapsed, error) {
	folder, err := timeseries.New(timeseries.Options{Width: 5, Capacity: 64, Detector: &timeseries.DetectorConfig{}})
	if err != nil {
		return nil, elapsed{}, err
	}
	cfg := sim.Config{Graph: c.g, Policy: c.scheme.Controlled(), Source: st, Warmup: warmup, Sink: folder}
	s := tr.begin(tr.layer("sim.Run"), -1, req)
	w := startWatch()
	res, err := sim.Run(cfg)
	took := w.stop()
	tr.end(s)
	if err != nil {
		return nil, elapsed{}, err
	}
	var offered int64
	for _, rs := range folder.Series() {
		for _, w := range rs.Windows {
			if w.Start >= warmup {
				offered += w.Offered
			}
		}
	}
	if offered != res.Offered {
		return nil, elapsed{}, fmt.Errorf("folder offered %d in the measured windows, Result.Offered %d", offered, res.Offered)
	}
	return res, took, nil
}

func childMetro(seed int64) (childReport, error) {
	w := startWatch()
	c, err := newMetroCase()
	if err != nil {
		return childReport{}, err
	}
	st, err := c.stream(seed)
	if err != nil {
		return childReport{}, err
	}
	var k childReport
	k.setup(w.stop())
	res, _, err := c.run(st, nil, 0)
	if err != nil {
		return childReport{}, err
	}
	k.Counters = countersOf(res)
	return k, nil
}

func runMetro(e *env) (*result, error) {
	r := &result{Workload: "metro-stream"}
	kids, err := children(e, r.Workload, metroChildren)
	if err != nil {
		return nil, err
	}
	c, err := newMetroCase()
	if err != nil {
		return nil, err
	}
	var first *sim.Result
	vals := map[string]float64{}
	p := simE2E(e, r, 3, kids, func(i int, tr *tracer) (float64, elapsed, error) {
		st, err := c.stream(e.seed + int64(i))
		if err != nil {
			return 0, elapsed{}, err
		}
		res, took, err := c.run(st, tr, int64(i))
		if err != nil {
			return 0, elapsed{}, fmt.Errorf("run %d: %w", i, err)
		}
		if i == 0 && first == nil {
			first = res
		}
		return float64(res.Offered), took, nil
	}, vals)
	if first == nil {
		return nil, fmt.Errorf("no run succeeded")
	}

	st, err := c.stream(e.seed)
	if err != nil {
		return nil, err
	}
	trace := st.Materialize()
	fromTrace, err := sim.Run(sim.Config{Graph: c.g, Policy: c.scheme.Controlled(), Trace: trace, Warmup: warmup})
	if err != nil {
		return nil, err
	}
	r.check("stream-fed run equals trace-fed run", sameResult(fromTrace, first), "trace %+v, stream %+v", countersOf(fromTrace), countersOf(first))
	checkRepeats(r, kids, first)
	checkLoad(r, first)
	checkPinned(r, e.seed, first, expected.Metro)

	if e.tr != nil {
		vals["trace.clock_ns"] = e.tr.clockCost()
		err := probeScenario(e.tr, vals, probeCase{g: c.g, m: c.m, h: metroH, trace: trace, seed: e.seed})
		if err != nil {
			return nil, err
		}
		// The layers of one metro run, each timed on its own, against the
		// run itself: arrivals, the event loop, emission and the fold.
		calls := float64(len(trace.Calls))
		events := vals["obs.events_per_call"] * calls
		sum := vals["sim.arrivals.ns_per_call"]*calls + vals["sim.run.ns_per_call"]*calls +
			(vals["obs.emit.ns_per_event"]+vals["timeseries.fold.ns_per_event"])*events
		vals["metro.layer_sum_ratio"] = sum / (median(p.wallsMs) * 1e6)
		r.setLayers(vals)
	}
	return r, nil
}

// ---- nsfnet-figure ---------------------------------------------------

// sweepCalls derives the sweep's schemes and generates its inputs the way
// the sweep does, cold: one shared Erlang cache, every (load, seed) arrival
// stream drained. It returns the calls one sweep simulates: every policy
// replays every seed's trace at every load. The sweep's seeds are fixed by
// the experiment.
func sweepCalls() (float64, error) {
	g, nominal, err := nsfnet()
	if err != nil {
		return 0, err
	}
	cache := erlang.NewCache()
	var calls int
	for _, x := range experiments.DefaultNSFNetLoads {
		m := nominal.Scaled(x / 10)
		if _, err := core.New(g, m, core.Options{H: nsfnetH, ErlangCache: cache}); err != nil {
			return 0, err
		}
		for seed := 0; seed < sweepSeeds; seed++ {
			st, err := sim.NewStream(m, sweepHorizon, int64(seed))
			if err != nil {
				return 0, err
			}
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				calls++
			}
		}
	}
	return float64(calls * sweepPolicies), nil
}

func sweepDigest(sw *altroute.Sweep) string {
	sum := sha256.Sum256([]byte(sw.String()))
	return hex.EncodeToString(sum[:])
}

func figure(parallelism int) (*altroute.Sweep, error) {
	return altroute.NSFNetFigure(nil, nsfnetH, false, altroute.SimParams{Seeds: sweepSeeds, Parallelism: parallelism})
}

func childFigure(int64) (childReport, error) {
	w := startWatch()
	calls, err := sweepCalls()
	if err != nil {
		return childReport{}, err
	}
	k := childReport{Calls: calls}
	k.setup(w.stop())
	sw, err := figure(1)
	if err != nil {
		return childReport{}, err
	}
	k.Digest = sweepDigest(sw)
	return k, nil
}

func runFigure(e *env) (*result, error) {
	r := &result{Workload: "nsfnet-figure"}
	kids, err := children(e, r.Workload, figureChildren)
	if err != nil {
		return nil, err
	}
	for i, k := range kids {
		r.check(fmt.Sprintf("sweep digest (process %d)", i), k.Digest == expected.FigureSHA256, "got %s, want %s", k.Digest, expected.FigureSHA256)
	}
	vals := map[string]float64{}
	// The timed sweep runs sequentially: a parallel one waits for its
	// slowest worker, so on a shared host its time follows whichever core
	// other tenants load most. The traced run times the parallel sweep.
	p := simE2E(e, r, 2, kids, func(i int, tr *tracer) (float64, elapsed, error) {
		s := tr.begin(tr.layer("altroute.NSFNetFigure(parallelism 1)"), -1, int64(i))
		w := startWatch()
		sw, err := figure(1)
		took := w.stop()
		tr.end(s)
		if err != nil {
			return 0, elapsed{}, err
		}
		if d := sweepDigest(sw); d != expected.FigureSHA256 {
			return 0, elapsed{}, fmt.Errorf("sweep %d: digest %s, want %s", i, d, expected.FigureSHA256)
		}
		return kids[0].Calls, took, nil
	}, vals)
	if e.tr == nil {
		return r, nil
	}

	vals["trace.clock_ns"] = e.tr.clockCost()
	s := e.tr.begin(e.tr.layer("altroute.NSFNetFigure(parallelism 0)"), -1, -1)
	par, err := figure(0)
	parS := e.tr.end(s) / 1e9
	if err != nil {
		return nil, err
	}
	r.check("parallelism 0 renders the same sweep", sweepDigest(par) == expected.FigureSHA256, "parallelism 0 renders %s", sweepDigest(par))
	seqS := median(p.wallsMs) / 1e3
	vals["experiments.sweep_seq_s"] = seqS
	vals["experiments.parallel_efficiency"] = seqS / (float64(currentHost().GOMAXPROCS) * parS)
	if err := probeSweep(e.tr, vals, seqS); err != nil {
		return nil, err
	}
	g, m, err := nsfnet()
	if err != nil {
		return nil, err
	}
	scheme := vals["core.scheme_ms"] // the sweep's per-point figure, kept over the nominal one
	err = probeScenario(e.tr, vals, probeCase{g: g, m: m, h: nsfnetH, trace: sim.GenerateTrace(m, sweepHorizon, e.seed), seed: e.seed})
	if err != nil {
		return nil, err
	}
	vals["core.scheme_ms"] = scheme
	r.setLayers(vals)
	return r, nil
}

// probeSweep replays the sweep's work sequentially, one public call at a
// time: per load point core.New on the shared cache, each seed's trace,
// each policy's sim.Run and the Erlang bound. Their sum against the
// sequential sweep shows what the layers leave out.
func probeSweep(tr *tracer, vals map[string]float64, seqS float64) error {
	g, nominal, err := nsfnet()
	if err != nil {
		return err
	}
	root := tr.begin(tr.layer("probe.sweep"), -1, -1)
	defer tr.end(root)
	lNew, lGen, lRun, lBound := tr.layer("core.New(shared cache)"), tr.layer("sim.GenerateTrace"), tr.layer("sim.Run(sweep)"), tr.layer("bound.ErlangBound")
	cache := erlang.NewCache()
	for _, x := range experiments.DefaultNSFNetLoads {
		m := nominal.Scaled(x / 10)
		s := tr.begin(lNew, root.id, -1)
		scheme, err := core.New(g, m, core.Options{H: nsfnetH, ErlangCache: cache})
		tr.end(s)
		if err != nil {
			return err
		}
		pols := []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()}
		for seed := 0; seed < sweepSeeds; seed++ {
			s := tr.begin(lGen, root.id, int64(seed))
			trace := sim.GenerateTrace(m, sweepHorizon, int64(seed))
			tr.end(s)
			for _, pol := range pols {
				s := tr.begin(lRun, root.id, int64(seed))
				_, err := sim.Run(sim.Config{Graph: g, Policy: pol, Trace: trace, Warmup: warmup})
				tr.end(s)
				if err != nil {
					return err
				}
			}
		}
		s = tr.begin(lBound, root.id, -1)
		_, err = bound.ErlangBound(g, m)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	vals["core.scheme_ms"] = tr.medianNs(lNew.name, 0) / 1e6
	vals["sweep.runs_s"] = tr.totalNs(lRun.name) / 1e9
	vals["bound.erlang_ms"] = tr.medianNs(lBound.name, 0) / 1e6
	sum := tr.totalNs(lNew.name) + tr.totalNs(lGen.name) + tr.totalNs(lRun.name) + tr.totalNs(lBound.name)
	vals["sweep.layer_sum_ratio"] = sum / 1e9 / seqS
	return nil
}
