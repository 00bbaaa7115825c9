package sim_test

// Golden determinism suite for the dynamic failure engine (see
// golden_test.go for the shared reference implementation and helpers).
// Two contracts are proven here:
//
//  1. An empty (or nil) FailurePlan is free: the run produces a Result
//     bit-identical to the pre-failure-engine reference implementation and
//     emits the exact same event stream, byte for byte at the JSONL layer.
//
//  2. A run with a non-trivial FailurePlan — scripted or generated — is
//     bit-deterministic: identical Results and event streams at any
//     GOMAXPROCS, and the availability sweep built on top is bit-identical
//     at any Parallelism setting, including each attached sink's stream.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// TestGoldenEmptyFailurePlanEquivalence: satellite guarantee that wiring the
// failure engine into the event loop did not perturb failure-free runs. The
// reference implementation predates the FailurePlan concept entirely, so
// bit-identity against it proves an empty plan reproduces today's behaviour
// exactly — for both the nil plan and the allocated-but-empty plan (which
// exercises the plan-normalization path with zero events).
//
// The cases share each scenario's policies and each seed's trace, touch no
// process-wide setting, and run as parallel subtests.
func TestGoldenEmptyFailurePlanEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		policies := goldenPolicies(t, sc)
		for _, seed := range goldenSeeds[:3] {
			trace := sim.GenerateTrace(sc.m, sc.horizon, seed)
			for pname, pol := range policies {
				label := fmt.Sprintf("%s/%s/seed=%d", sc.name, pname, seed)
				base := sim.Config{
					Graph: sc.g, Policy: pol, Trace: trace, Warmup: sc.warmup,
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					checkEmptyPlans(t, label, base)
				})
			}
		}
	}
}

// checkEmptyPlans runs base under a nil and an empty failure plan and
// requires both to match the reference engine's run bit for bit.
func checkEmptyPlans(t *testing.T, label string, base sim.Config) {
	refSink := &recordSink{}
	refCfg := base
	refCfg.Sink = refSink
	want, err := referenceRun(refCfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	wantJSONL := jsonlBytes(t, refSink.events)

	for _, plan := range []*sim.FailurePlan{nil, {}} {
		variant := "nil-plan"
		if plan != nil {
			variant = "empty-plan"
		}
		gotSink := &recordSink{}
		cfg := base
		cfg.Failures = plan
		cfg.Failover = sim.FailoverReroute // must be inert without events
		cfg.Sink = gotSink
		got, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: run: %v", label, variant, err)
		}
		requireSameResult(t, label+"/"+variant, got, want)
		if got.LostToFailure != 0 || got.FailureRerouted != 0 {
			t.Fatalf("%s/%s: failure counters (%d,%d) on a failure-free run",
				label, variant, got.LostToFailure, got.FailureRerouted)
		}
		requireSameEvents(t, label+"/"+variant, gotSink.events, refSink.events)
		if gotJSONL := jsonlBytes(t, gotSink.events); !bytes.Equal(gotJSONL, wantJSONL) {
			t.Fatalf("%s/%s: JSONL bytes diverge from reference stream", label, variant)
		}
	}
}

// failureGoldenConfig builds the canonical failure-run configuration used by
// the GOMAXPROCS determinism test: the ring6 scenario under a generated
// outage plan plus one scripted duplex outage, so both plan sources and
// both failover modes are exercised.
func failureGoldenConfig(t *testing.T, mode sim.FailoverMode, seed int64) sim.Config {
	t.Helper()
	sc := goldenScenarios(t)[1] // ring6
	plan, err := sim.GenerateOutages(sc.g, sc.horizon, sim.OutageParams{
		MTBF: 4, MTTR: 0.5, Duplex: true, Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate outages: %v", err)
	}
	if err := plan.AddDuplex(sc.g, 0, 1, sc.warmup+0.25, true); err != nil {
		t.Fatalf("scripted outage: %v", err)
	}
	if err := plan.AddDuplex(sc.g, 0, 1, sc.warmup+1.75, false); err != nil {
		t.Fatalf("scripted repair: %v", err)
	}
	return sim.Config{
		Graph:    sc.g,
		Policy:   goldenPolicies(t, sc)["controlled"],
		Trace:    sim.GenerateTrace(sc.m, sc.horizon, seed),
		Warmup:   sc.warmup,
		Failures: plan,
		Failover: mode,
	}
}

// TestGoldenFailurePlanDeterminism: a run with a live FailurePlan is
// bit-identical across GOMAXPROCS 1, 2 and 8 — Result, failure counters,
// and the full event stream down to the JSONL bytes — in both failover
// modes, and the plan actually fires (the test is vacuous otherwise).
func TestGoldenFailurePlanDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []sim.FailoverMode{sim.FailoverDrop, sim.FailoverReroute} {
		runtime.GOMAXPROCS(1)
		baseSink := &recordSink{}
		cfg := failureGoldenConfig(t, mode, 3)
		cfg.Sink = baseSink
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: baseline: %v", mode, err)
		}
		if n := countKind(baseSink.events, obs.KindLinkDown); n == 0 {
			t.Fatalf("%s: plan emitted no link-down events; scenario too quiet", mode)
		}
		if want.LostToFailure == 0 && want.FailureRerouted == 0 {
			t.Fatalf("%s: no call was ever torn down or rerouted; scenario too quiet", mode)
		}
		wantJSONL := jsonlBytes(t, baseSink.events)

		for _, gmp := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(gmp)
			label := fmt.Sprintf("%s/gomaxprocs=%d", mode, gmp)
			sink := &recordSink{}
			cfg := failureGoldenConfig(t, mode, 3)
			cfg.Sink = sink
			got, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			requireSameResult(t, label, got, want)
			requireSameEvents(t, label, sink.events, baseSink.events)
			if gotJSONL := jsonlBytes(t, sink.events); !bytes.Equal(gotJSONL, wantJSONL) {
				t.Fatalf("%s: JSONL bytes diverge from baseline", label)
			}
		}
	}
}

// requireSameAvailability compares the three sweeps of an availability study
// bit-exactly.
func requireSameAvailability(t *testing.T, label string, got, want *experiments.Availability) {
	t.Helper()
	requireSameSweep(t, label+"/blocking", got.Blocking, want.Blocking)
	requireSameSweep(t, label+"/lost", got.Lost, want.Lost)
	requireSameSweep(t, label+"/unserved", got.Unserved, want.Unserved)
}

// TestGoldenAvailabilityParallelEquivalence extends the parallel-engine
// determinism contract to the availability sweep: failure-plan generation,
// per-run outage injection, and online scheme re-derivation all happen
// inside concurrently executing grid points, and the merged study plus the
// attached sink's stream must still be bit-identical to the fully
// sequential run at every Parallelism and GOMAXPROCS setting.
func TestGoldenAvailabilityParallelEquivalence(t *testing.T) {
	g := netmodel.Quadrangle()
	m := traffic.Uniform(4, 90)
	rates := []float64{0.02, 0.08}
	p := experiments.SimParams{Seeds: 2, Warmup: 1, Horizon: 6}

	seqP := p
	seqP.Parallelism = 1
	seqSink := &recordSink{}
	seqP.Sink = seqSink
	want, err := experiments.AvailabilitySweep("quadrangle", g, m, rates, 0, 0.5, sim.FailoverReroute, seqP)
	if err != nil {
		t.Fatalf("sequential availability: %v", err)
	}
	wantJSONL := jsonlBytes(t, seqSink.events)
	if n := countKind(seqSink.events, obs.KindLinkDown); n == 0 {
		t.Fatal("availability baseline saw no link-down events; rates too low")
	}

	// Each GOMAXPROCS setting is a group whose Parallelism cases run as
	// parallel subtests: the group returns only when they finish, so both
	// run at its setting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			for _, par := range []int{0, 8} {
				label := fmt.Sprintf("gomaxprocs=%d/parallel=%d", gmp, par)
				t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
					t.Parallel()
					pp := p
					pp.Parallelism = par
					sink := &recordSink{}
					pp.Sink = sink
					got, err := experiments.AvailabilitySweep("quadrangle", g, m, rates, 0, 0.5, sim.FailoverReroute, pp)
					if err != nil {
						t.Fatalf("%s: availability: %v", label, err)
					}
					requireSameAvailability(t, label, got, want)
					requireSameEvents(t, label+"/events", sink.events, seqSink.events)
					if gotJSONL := jsonlBytes(t, sink.events); !bytes.Equal(gotJSONL, wantJSONL) {
						t.Fatalf("%s: JSONL bytes diverge from sequential stream", label)
					}
				})
			}
		})
	}
}
