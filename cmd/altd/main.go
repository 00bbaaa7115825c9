// Command altd is the live routing control plane: a daemon serving the
// paper's controlled alternate-routing admission decisions over
// JSON-over-HTTP. It loads a netio scenario, derives the scheme (route
// table + protection levels), and answers admit/release/status requests
// through the compiled route tables — the same thresholds and branch-poor
// scan as the offline simulator, so a replayed request trace decides
// bit-identically to sim.Run. Observed set-ups feed the EWMA Λ̂ estimator,
// and estimate epochs re-derive the protection levels through the shared
// Erlang cache; POST /topology notifications recompile the thresholds the
// way sim.Run does at failure epochs.
//
// Usage:
//
//	altd -scenario net.json [-addr localhost:8080] [flags]
//
// Endpoints:
//
//	POST /admit     {"id":1,"from":"sf","to":"ny"}        admission decision
//	POST /release   {"id":1}                              release a call
//	POST /topology  {"from":"sf","to":"ny","down":true,"duplex":true}
//	GET  /status    decision counters, Λ̂, protection levels
//	GET  /metrics   Prometheus exposition (registry + time series)
//	GET  /debug/vars, /debug/pprof/...
//
// Quick start:
//
//	altd -scenario scenario.json -addr localhost:8080 &
//	curl -s localhost:8080/admit -d '{"id":1,"from":"node0","to":"node1"}'
//	curl -s localhost:8080/status | jq .metrics
//	curl -s localhost:8080/metrics | grep altroute_calls_accepted
//
// Timestamps: requests may carry an "at" field (model time); without one
// the daemon stamps the decision from its wall clock mapped to model time
// at -timescale units per second. The control plane itself never reads a
// clock — the mapping is injected here, keeping replays deterministic.
//
// Shutdown (SIGINT/SIGTERM) is graceful: the listener stops accepting,
// in-flight decisions drain through the single decision loop, and the
// -events JSONL stream is flushed before exit.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/estimate"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
)

// options carries the parsed flag values.
type options struct {
	scenario  string
	addr      string
	hops      int
	estWindow float64
	estAlpha  float64
	refresh   float64
	timescale float64
	tick      time.Duration
	events    string
	window    float64
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("altd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.scenario, "scenario", "", "scenario JSON file (required; see altsim export-scenario)")
	fs.StringVar(&o.addr, "addr", "localhost:8080", "control API listen address")
	fs.IntVar(&o.hops, "H", 0, "maximum alternate hop length (0 = scenario's, else unlimited loop-free)")
	fs.Float64Var(&o.estWindow, "est-window", 5, "Λ̂ estimation window in model time units (0 disables estimation)")
	fs.Float64Var(&o.estAlpha, "est-alpha", 0.3, "Λ̂ EWMA smoothing factor in (0,1]")
	fs.Float64Var(&o.refresh, "refresh", 0, "estimate-epoch period in model time units (0 = est-window)")
	fs.Float64Var(&o.timescale, "timescale", 1, "model time units per wall-clock second")
	fs.DurationVar(&o.tick, "tick", time.Second, "estimator tick period in wall time (0 disables ticks)")
	fs.StringVar(&o.events, "events", "", "write the decision event stream as JSONL to this file")
	fs.Float64Var(&o.window, "window", 5, "windowed time-series width in model time units (0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.scenario == "" {
		fs.Usage()
		return nil, fmt.Errorf("altd: -scenario is required")
	}
	return o, nil
}

// daemon is one assembled control plane: the ctrl server, its HTTP
// front end, the estimator tick loop, and the event sinks.
type daemon struct {
	srv  *ctrl.Server
	http *http.Server
	ln   net.Listener

	reg        *obs.Registry
	series     *timeseries.Folder
	jsonl      *obs.JSONL
	eventsFile *os.File

	tick     time.Duration
	tickStop chan struct{}
	tickWG   sync.WaitGroup

	stderr io.Writer
}

// newDaemon loads the scenario, derives the scheme, and assembles the
// server and its mux; the listener is bound (so addr resolves :0) but not
// yet serving.
func newDaemon(o *options, stderr io.Writer) (*daemon, error) {
	f, err := os.Open(o.scenario)
	if err != nil {
		return nil, err
	}
	sc, err := netio.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	g, m, err := sc.Build()
	if err != nil {
		// ErrInvalidScenario: fail loudly before any traffic is admitted.
		return nil, fmt.Errorf("altd: scenario %s: %w", o.scenario, err)
	}
	hops := o.hops
	if hops == 0 {
		hops = sc.H
	}
	scheme, err := core.New(g, m, core.Options{H: hops})
	if err != nil {
		return nil, err
	}

	d := &daemon{tick: o.tick, tickStop: make(chan struct{}), stderr: stderr}

	// Sinks: the registry always runs (it feeds /metrics); JSONL and the
	// windowed time series are opt-in.
	d.reg = obs.NewRegistry()
	sinks := []obs.Sink{d.reg}
	if o.events != "" {
		ef, err := os.Create(o.events)
		if err != nil {
			return nil, err
		}
		d.eventsFile = ef
		d.jsonl = obs.NewJSONL(ef)
		sinks = append(sinks, d.jsonl)
	}
	if o.window > 0 {
		folder, err := timeseries.New(timeseries.Options{Width: o.window, Capacity: 256})
		if err != nil {
			return nil, err
		}
		d.series = folder
		sinks = append(sinks, d.series)
	}

	cfg := ctrl.Config{
		Graph: g,
		Sink:  obs.Multi(sinks...),
	}
	// The wall clock stays out of internal/ctrl: the daemon injects the
	// wall→model mapping, so requests without an explicit "at" are stamped
	// at timescale model units per second since start.
	start := time.Now()
	scale := o.timescale
	cfg.Clock = func() float64 { return time.Since(start).Seconds() * scale }

	if o.estWindow > 0 {
		est, err := estimate.New(g, o.estWindow, o.estAlpha)
		if err != nil {
			return nil, err
		}
		adapt := scheme.Adaptive(core.AdaptRederive, nil)
		tc, ok := adapt.Policy().(sim.TableCompiler)
		if !ok {
			return nil, fmt.Errorf("altd: adaptive policy does not compile")
		}
		cfg.Policy, cfg.Estimator, cfg.Adapt, cfg.RefreshEvery = tc, est, adapt, o.refresh
	} else {
		tc, ok := scheme.Controlled().(sim.TableCompiler)
		if !ok {
			return nil, fmt.Errorf("altd: controlled policy does not compile")
		}
		cfg.Policy = tc
	}

	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	d.srv = srv

	mux := srv.Mux()
	mux.Handle("GET /metrics", metricsHandler(d.reg, d.series))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	d.http = &http.Server{Handler: mux}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	d.ln = ln
	return d, nil
}

// metricsHandler serves the Prometheus exposition from the live registry
// plus the time-series collector when enabled.
func metricsHandler(reg *obs.Registry, series *timeseries.Folder) http.Handler {
	var extra []obs.PromCollector
	if series != nil {
		extra = append(extra, series)
	}
	return obs.PromHandler(reg, extra...)
}

// addr returns the bound listen address (resolves ":0").
func (d *daemon) addr() string { return d.ln.Addr().String() }

// run starts the decision loop, the tick loop, and the HTTP front end; it
// blocks until the HTTP server is shut down.
func (d *daemon) run() error {
	d.srv.Start()
	if d.tick > 0 {
		d.tickWG.Add(1)
		go func() {
			defer d.tickWG.Done()
			t := time.NewTicker(d.tick)
			defer t.Stop()
			for {
				select {
				case <-d.tickStop:
					return
				case <-t.C:
					// Stamped by the injected clock; drives estimator
					// window folds and due estimate epochs even when no
					// requests arrive.
					if err := d.srv.Tick(0, false); err != nil {
						return
					}
				}
			}
		}()
	}
	err := d.http.Serve(d.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// shutdown drains the daemon: stop ticking, stop accepting and finish
// in-flight HTTP requests, drain the decision queue, then flush the event
// stream. Safe to call once.
func (d *daemon) shutdown(ctx context.Context) error {
	close(d.tickStop)
	d.tickWG.Wait()
	err := d.http.Shutdown(ctx)
	d.srv.Shutdown()
	if d.jsonl != nil {
		if ferr := d.jsonl.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if cerr := d.eventsFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func run(args []string, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	d, err := newDaemon(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "altd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "altd: serving control API on http://%s (scenario %s)\n", d.addr(), o.scenario)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.run() }()

	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "altd: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "altd: shutdown:", err)
			return 1
		}
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintln(stderr, "altd:", err)
			return 1
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}
