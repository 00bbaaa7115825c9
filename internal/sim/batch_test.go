package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// pulledSource hands out a Stream's calls through Next only: an
// ArrivalSource that Run cannot read as a Stream, so it pulls one call at
// a time.
type pulledSource struct{ s *sim.Stream }

func (p pulledSource) Next() (sim.Call, bool) { return p.s.Next() }
func (p pulledSource) Horizon() float64       { return p.s.Horizon() }
func (p pulledSource) Seed() int64            { return p.s.Seed() }

// arrivalReaders are the three ways Run reads arrivals: a Trace's call
// slice in place, a Stream's slabs in place, and Next on any other
// source. Each builds a fresh source of the same (matrix, horizon, seed).
func arrivalReaders(t *testing.T, m *traffic.Matrix, horizon float64, seed int64) map[string]func(*sim.Config) {
	t.Helper()
	stream := func() *sim.Stream {
		s, err := sim.NewStream(m, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func(*sim.Config){
		"trace":  func(c *sim.Config) { c.Trace, c.Source = sim.GenerateTrace(m, horizon, seed), nil },
		"stream": func(c *sim.Config) { c.Trace, c.Source = nil, stream() },
		"pulled": func(c *sim.Config) { c.Trace, c.Source = nil, pulledSource{stream()} },
	}
}

// TestArrivalReadersAgree: one matrix and seed, read as a Trace, as a
// Stream and through Next, give identical Results and JSONL bytes, on the
// compiled and the interpreted path, with windows and with a failure plan
// (both failover modes), bare and instrumented.
func TestArrivalReadersAgree(t *testing.T) {
	for _, mode := range []sim.FailoverMode{sim.FailoverDrop, sim.FailoverReroute} {
		base := failureGoldenConfig(t, mode, 3)
		sc := goldenScenarios(t)[1] // ring6, the scenario of base
		base.WindowLength = 0.5
		base.OccupancyEvents = true
		for _, compiled := range []bool{true, false} {
			cfg := base
			if !compiled {
				cfg.Policy = uncompilable{cfg.Policy}
			}
			if sim.CompilesFor(cfg.Policy, cfg.Graph) != compiled {
				t.Fatalf("compiled=%v: the policy takes the other path", compiled)
			}
			for _, instrumented := range []bool{false, true} {
				label := fmt.Sprintf("%s/compiled=%v/instrumented=%v", mode, compiled, instrumented)
				var want *sim.Result
				var wantEvents []obs.Event
				for _, name := range []string{"trace", "stream", "pulled"} {
					run := cfg
					arrivalReaders(t, sc.m, sc.horizon, 3)[name](&run)
					var sink *recordSink
					if instrumented {
						sink = &recordSink{}
						run.Sink = sink
					}
					got, err := sim.Run(run)
					if err != nil {
						t.Fatalf("%s/%s: %v", label, name, err)
					}
					if got.LostToFailure+got.FailureRerouted == 0 || len(got.Windows) == 0 {
						t.Fatalf("%s/%s: no failure teardown or no windows; the case is vacuous", label, name)
					}
					if want == nil {
						want = got
						if sink != nil {
							wantEvents = sink.events
						}
						continue
					}
					requireSameResult(t, label+"/"+name, got, want)
					if sink != nil {
						requireSameJSONL(t, label+"/"+name, sink.events, wantEvents)
					}
				}
			}
		}
	}
}

// TestArrivalReadersEmpty: a source without calls — an empty Trace, a
// Stream of a matrix without demand, a Next source over it — is a run
// with nothing offered: no error, zero counters, and only the run markers
// on the event stream.
func TestArrivalReadersEmpty(t *testing.T) {
	sc := goldenScenarios(t)[0]
	empty := traffic.NewMatrix(sc.g.NumNodes())
	for name, set := range arrivalReaders(t, empty, sc.horizon, 1) {
		cfg := sim.Config{Graph: sc.g, Policy: goldenPolicies(t, sc)["controlled"], Warmup: sc.warmup}
		set(&cfg)
		sink := &recordSink{}
		cfg.Sink = sink
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Offered != 0 || res.Accepted != 0 || res.Blocked != 0 || len(res.PerPairOffered) != 0 {
			t.Errorf("%s: %+v, want nothing offered", name, res)
		}
		if len(sink.events) != 2 || sink.events[0].Kind != obs.KindRunStart || sink.events[1].Kind != obs.KindRunEnd {
			t.Errorf("%s: events %+v, want run-start and run-end only", name, sink.events)
		}
	}
}

// TestArrivalReadersStopAtHorizon: calls at or past Config.Horizon are
// never offered, whichever reader delivers them — also a call exactly at
// the horizon.
func TestArrivalReadersStopAtHorizon(t *testing.T) {
	sc := goldenScenarios(t)[2] // nsfnet
	tr := sim.GenerateTrace(sc.m, sc.horizon, 2)
	at := tr.Calls[len(tr.Calls)*2/3].Arrival // a call exactly at the horizon
	var want int64
	for _, c := range tr.Calls {
		if c.Arrival >= sc.warmup && c.Arrival < at {
			want++
		}
	}
	for name, set := range arrivalReaders(t, sc.m, sc.horizon, 2) {
		for _, compiled := range []bool{true, false} {
			cfg := sim.Config{Graph: sc.g, Policy: goldenPolicies(t, sc)["controlled"], Warmup: sc.warmup, Horizon: at}
			if !compiled {
				cfg.Policy = uncompilable{cfg.Policy}
			}
			set(&cfg)
			sink := &recordSink{}
			cfg.Sink = sink
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Offered != want {
				t.Errorf("%s/compiled=%v: offered %d, want the %d calls in [warmup, horizon)", name, compiled, res.Offered, want)
			}
			for _, e := range sink.events {
				if e.Kind == obs.KindCallOffered && e.Time >= at {
					t.Fatalf("%s/compiled=%v: call %d at %v offered at horizon %v", name, compiled, e.Call, e.Time, at)
				}
			}
		}
	}
}
