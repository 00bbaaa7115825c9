package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/erlang"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Probe sizes: enough calls for stable per-call costs, few enough that the
// buffered event stream and the per-call spans stay small in memory.
const (
	emitCalls    = 100_000 // calls whose events are buffered for obs and fold
	decideCalls  = 200_000 // calls replayed through ctrl.Engine
	serverCalls  = 10_000  // calls replayed through ctrl.Server and its mux
	probeRepeats = 3
)

// probeCase is a workload's scenario as the layer probes see it.
type probeCase struct {
	g     *graph.Graph
	m     *traffic.Matrix
	h     int
	trace *sim.Trace // the workload's arrivals, materialized
	seed  int64
}

// event is one admission or release in the order sim.Run processes them:
// by epoch, departures before arrivals on ties.
type event struct {
	at      float64
	call    int32
	release bool
}

// callEvents returns the admit and release events of calls in processing
// order. A release applies only if its call was admitted.
func callEvents(calls []sim.Call) []event {
	evs := make([]event, 0, 2*len(calls))
	for i, c := range calls {
		evs = append(evs, event{c.Arrival, int32(i), false}, event{c.Arrival + c.Holding, int32(i), true})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].release && !evs[b].release
	})
	return evs
}

// replay drives admit and release over calls in processing order.
func replay(calls []sim.Call, admit func(i int, c sim.Call) (bool, error), release func(i int, c sim.Call, at float64) error) error {
	admitted := make([]bool, len(calls))
	for _, ev := range callEvents(calls) {
		i := int(ev.call)
		if !ev.release {
			ok, err := admit(i, calls[i])
			if err != nil {
				return fmt.Errorf("admit call %d: %w", i, err)
			}
			admitted[i] = ok
			continue
		}
		if admitted[i] {
			if err := release(i, calls[i], ev.at); err != nil {
				return fmt.Errorf("release call %d: %w", i, err)
			}
		}
	}
	return nil
}

func firstCalls(t *sim.Trace, n int) []sim.Call {
	return t.Calls[:min(n, len(t.Calls))]
}

// modelClock is the wall→model clock altd injects into its server, set by
// the probe to each request's model time instead.
type modelClock struct{ bits atomic.Uint64 }

func (c *modelClock) set(t float64) { c.bits.Store(math.Float64bits(t)) }
func (c *modelClock) now() float64  { return math.Float64frombits(c.bits.Load()) }

// altdServer builds a ctrl.Server configured like altd's defaults: the
// adaptive controlled policy, the Λ̂ estimator (window 5, α 0.3) and
// estimate epochs every window.
func altdServer(g *graph.Graph, scheme *core.Scheme, clock *modelClock) (*ctrl.Server, error) {
	est, err := estimate.New(g, 5, 0.3)
	if err != nil {
		return nil, err
	}
	adapt := scheme.Adaptive(core.AdaptRederive, nil)
	tc, ok := adapt.Policy().(sim.TableCompiler)
	if !ok {
		return nil, fmt.Errorf("adaptive policy does not compile")
	}
	return ctrl.NewServer(ctrl.Config{Graph: g, Policy: tc, Estimator: est, Adapt: adapt, Clock: clock.now})
}

// probeScenario times each layer's public calls on a workload's scenario
// and stores the per-layer values in vals. Every span hangs under one
// root span.
func probeScenario(tr *tracer, vals map[string]float64, c probeCase) error {
	clock := vals["trace.clock_ns"]
	root := tr.begin(tr.layer("probe.scenario"), -1, -1)
	defer tr.end(root)
	timed := func(name string, req int64, fn func() error) (float64, error) {
		s := tr.begin(tr.layer(name), root.id, req)
		err := fn()
		return tr.end(s), err
	}
	repeated := func(name string, fn func() error) (float64, error) {
		var ds []float64
		for k := 0; k < probeRepeats; k++ {
			d, err := timed(name, int64(k), fn)
			if err != nil {
				return 0, err
			}
			ds = append(ds, d)
		}
		return median(ds), nil
	}

	d, err := timed("policy.BuildMinHop", -1, func() error {
		_, err := policy.BuildMinHop(c.g, c.h)
		return err
	})
	if err != nil {
		return err
	}
	vals["policy.routes_s"] = d / 1e9

	var scheme *core.Scheme
	d, err = timed("core.New", -1, func() (err error) {
		scheme, err = core.New(c.g, c.m, core.Options{H: c.h})
		return err
	})
	if err != nil {
		return err
	}
	vals["core.scheme_ms"] = d / 1e6

	caps := make([]int, c.g.NumLinks())
	for id := range caps {
		caps[id] = c.g.Link(graph.LinkID(id)).Capacity
	}
	d, _ = repeated("erlang.ProtectionLevels(cold cache)", func() error {
		erlang.ProtectionLevels(scheme.LinkLoads, caps, scheme.H, erlang.NewCache())
		return nil
	})
	vals["core.eq15_ms"] = d / 1e6

	// Construction (one generator per O-D pair) and the drain are timed
	// apart: a stream-fed run pays only the drain inside sim.Run.
	var news, drains []float64
	for k := 0; k < probeRepeats; k++ {
		var st *sim.Stream
		d, err := timed("sim.NewStream", int64(k), func() (err error) {
			st, err = sim.NewStream(c.m, c.trace.Horizon, c.seed)
			return err
		})
		if err != nil {
			return err
		}
		news = append(news, d)
		drained := 0
		d, _ = timed("sim.Stream.Next(drain)", int64(k), func() error {
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				drained++
			}
			return nil
		})
		drains = append(drains, d/float64(drained))
	}
	vals["sim.stream_new_ms"] = median(news) / 1e6
	vals["sim.arrivals.ns_per_call"] = median(drains)

	pol := scheme.Controlled()
	cfg := sim.Config{Graph: c.g, Policy: pol, Trace: c.trace, Warmup: warmup}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	vals["sim.run.allocs_per_run"] = float64(after.Mallocs - before.Mallocs)
	vals["sim.run.bytes_per_run"] = float64(after.TotalAlloc - before.TotalAlloc)
	if lost := res.AlternateAccepted + res.Blocked; lost > 0 {
		vals["sim.alt_scan_share"] = float64(lost) / float64(res.Offered)
		vals["sim.alt_success_ratio"] = float64(res.AlternateAccepted) / float64(lost)
	}
	d, err = repeated("sim.Run", func() error {
		_, err := sim.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	vals["sim.run.ns_per_call"] = d / float64(len(c.trace.Calls))

	if err := probeEmission(tr, vals, c, pol, repeated); err != nil {
		return err
	}
	return probeCtrl(tr, root.id, vals, c, scheme, clock)
}

// probeEmission times event emission (a run into a no-op sink less a run
// with none) and the offline fold over the run's buffered events, on the
// workload's first emitCalls calls.
func probeEmission(tr *tracer, vals map[string]float64, c probeCase, pol sim.Policy, repeated func(string, func() error) (float64, error)) error {
	calls := firstCalls(c.trace, emitCalls)
	short := &sim.Trace{Calls: calls, Horizon: c.trace.Horizon, Seed: c.trace.Seed}
	if len(calls) < len(c.trace.Calls) {
		short.Horizon = c.trace.Calls[len(calls)].Arrival
	}
	base := sim.Config{Graph: c.g, Policy: pol, Trace: short}
	buf := obs.NewBuffer()
	withBuf := base
	withBuf.Sink = buf
	if _, err := sim.Run(withBuf); err != nil {
		return err
	}
	events := buf.Events()
	vals["obs.events_per_call"] = float64(len(events)) / float64(len(calls))

	bare, err := repeated("sim.Run(nil sink)", func() error { _, err := sim.Run(base); return err })
	if err != nil {
		return err
	}
	nullCfg := base
	nullCfg.Sink = obs.NullSink{}
	null, err := repeated("sim.Run(no-op sink)", func() error { _, err := sim.Run(nullCfg); return err })
	if err != nil {
		return err
	}
	vals["obs.emit.ns_per_event"] = max(0, null-bare) / float64(len(events))

	fold, err := repeated("timeseries.FoldEvents", func() error {
		_, err := timeseries.FoldEvents(events, timeseries.Options{Width: 5, Capacity: 64, Detector: &timeseries.DetectorConfig{}})
		return err
	})
	if err != nil {
		return err
	}
	vals["timeseries.fold.ns_per_event"] = fold / float64(len(events))
	return nil
}

// probeCtrl times the control plane's layers on the workload's calls: the
// bare decision (Engine), the decision loop round trip (Server), the HTTP
// handler (Mux().ServeHTTP) and an estimate epoch's rederivation.
func probeCtrl(tr *tracer, parent int32, vals map[string]float64, c probeCase, scheme *core.Scheme, clock float64) error {
	tc, ok := scheme.Controlled().(sim.TableCompiler)
	if !ok {
		return fmt.Errorf("controlled policy does not compile")
	}
	eng, err := ctrl.NewEngine(c.g, nil, tc, nil)
	if err != nil {
		return err
	}
	lAdmit, lRelease := tr.layer("ctrl.Engine.Admit"), tr.layer("ctrl.Engine.Release")
	err = replay(firstCalls(c.trace, decideCalls), func(i int, call sim.Call) (bool, error) {
		s := tr.begin(lAdmit, parent, int64(i))
		dec, err := eng.Admit(call.Arrival, int64(i), call.Origin, call.Dest)
		tr.end(s)
		return dec.Admitted, err
	}, func(i int, _ sim.Call, _ float64) error {
		s := tr.begin(lRelease, parent, int64(i))
		err := eng.Release(int64(i))
		tr.end(s)
		return err
	})
	if err != nil {
		return err
	}
	vals["ctrl.decide.ns"] = tr.meanNs(lAdmit.name, clock)
	vals["ctrl.release.ns"] = tr.meanNs(lRelease.name, clock)

	adapt := scheme.Adaptive(core.AdaptRederive, nil)
	atc, ok := adapt.Policy().(sim.TableCompiler)
	if !ok {
		return fmt.Errorf("adaptive policy does not compile")
	}
	aeng, err := ctrl.NewEngine(c.g, nil, atc, nil)
	if err != nil {
		return err
	}
	lRederive := tr.layer("core.AdaptiveScheme.RederiveFromLoads+ctrl.Engine.Recompile")
	for k := 0; k < 5; k++ {
		// Fresh loads each epoch, as the estimator's Λ̂ would be.
		loads := scale(scheme.LinkLoads, 1+0.01*float64(k+1))
		s := tr.begin(lRederive, parent, int64(k))
		adapt.RederiveFromLoads(aeng.State(), loads)
		aeng.Recompile()
		tr.end(s)
	}
	vals["estimate.rederive_ms"] = tr.medianNs(lRederive.name, clock) / 1e6

	calls := firstCalls(c.trace, serverCalls)
	mc := &modelClock{}
	srv, err := altdServer(c.g, scheme, mc)
	if err != nil {
		return err
	}
	srv.Start()
	lLoop := tr.layer("ctrl.Server.Admit")
	err = replay(calls, func(i int, call sim.Call) (bool, error) {
		mc.set(call.Arrival)
		s := tr.begin(lLoop, parent, int64(i))
		dec, err := srv.Admit(int64(i), call.Origin, call.Dest, 0, false)
		tr.end(s)
		return dec.Admitted, err
	}, func(i int, _ sim.Call, at float64) error {
		mc.set(at)
		return srv.Release(int64(i), 0, false)
	})
	srv.Shutdown()
	if err != nil {
		return err
	}
	loopUs := tr.medianNs(lLoop.name, clock) / 1e3
	vals["ctrl.loop.us"] = loopUs
	vals["ctrl.handoff.us"] = loopUs - vals["ctrl.decide.ns"]/1e3

	handlerUs, allocs, err := probeHandler(tr, parent, c, calls, scheme, clock)
	if err != nil {
		return err
	}
	vals["ctrl.handler.us"] = handlerUs
	vals["ctrl.codec.us"] = handlerUs - loopUs
	vals["ctrl.http.allocs_per_request"] = allocs
	return nil
}

// probeHandler serves calls through a fresh altd-like server's mux into
// response recorders, with request bodies as the wire carries them (no
// "at"). Requests and recorders are built before the allocation count
// starts, so it covers serving alone.
func probeHandler(tr *tracer, parent int32, c probeCase, calls []sim.Call, scheme *core.Scheme, clock float64) (handlerUs, allocsPerRequest float64, err error) {
	mc := &modelClock{}
	srv, err := altdServer(c.g, scheme, mc)
	if err != nil {
		return 0, 0, err
	}
	srv.Start()
	defer srv.Shutdown()
	mux := srv.Mux()
	type exchange struct {
		admit, release       *http.Request
		admitRec, releaseRec *httptest.ResponseRecorder
	}
	ex := make([]exchange, len(calls))
	for i, call := range calls {
		ex[i] = exchange{
			admit:      httptest.NewRequest(http.MethodPost, "/admit", bytes.NewReader(admitBody(c.g, int64(i), call))),
			release:    httptest.NewRequest(http.MethodPost, "/release", bytes.NewReader(releaseBody(int64(i)))),
			admitRec:   httptest.NewRecorder(),
			releaseRec: httptest.NewRecorder(),
		}
	}
	admittedMark := []byte(`"admitted":true`)
	lAdmit := tr.layer("ctrl.Server.Mux.ServeHTTP(/admit)")
	served := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = replay(calls, func(i int, call sim.Call) (bool, error) {
		mc.set(call.Arrival)
		s := tr.begin(lAdmit, parent, int64(i))
		mux.ServeHTTP(ex[i].admitRec, ex[i].admit)
		tr.end(s)
		served++
		if ex[i].admitRec.Code != http.StatusOK {
			return false, fmt.Errorf("status %d", ex[i].admitRec.Code)
		}
		return bytes.Contains(ex[i].admitRec.Body.Bytes(), admittedMark), nil
	}, func(i int, _ sim.Call, at float64) error {
		mc.set(at)
		mux.ServeHTTP(ex[i].releaseRec, ex[i].release)
		served++
		if ex[i].releaseRec.Code != http.StatusOK {
			return fmt.Errorf("status %d", ex[i].releaseRec.Code)
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	return tr.medianNs(lAdmit.name, clock) / 1e3, float64(after.Mallocs-before.Mallocs) / float64(served), nil
}

// admitBody and releaseBody are the request bodies the wire carries.
func admitBody(g *graph.Graph, id int64, c sim.Call) []byte {
	return fmt.Appendf(nil, `{"id":%d,"from":%q,"to":%q}`, id, g.NodeName(c.Origin), g.NodeName(c.Dest))
}

func releaseBody(id int64) []byte { return fmt.Appendf(nil, `{"id":%d}`, id) }

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
