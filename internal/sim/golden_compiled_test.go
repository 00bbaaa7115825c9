package sim_test

// Golden equivalence suite for the compiled fast path (ISSUE 7): every
// policy the route-table compiler accepts must produce a Result
// bit-identical to the interpreted engine — same counters, same float
// bits, same typed event stream down to the JSONL bytes — across
// topologies, seeds, GOMAXPROCS settings, live failure plans, and online
// scheme adaptation. The interpreted side is forced by hiding the
// policy's CompileRoutes method behind a wrapper, so both runs execute
// the same Policy code against the same inputs and differ only in the
// engine Run selects.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/sim"
)

// uncompilable hides the embedded policy's CompileRoutes method, so
// sim.Run cannot see sim.TableCompiler and falls back to the interpreted
// engine while routing decisions stay byte-for-byte the same.
type uncompilable struct{ sim.Policy }

// compiledGoldenPolicies returns every policy expected to run on the
// compiled fast path for a scenario, including the tiered scheme the
// shared goldenPolicies helper does not build.
func compiledGoldenPolicies(t *testing.T, sc goldenScenario) map[string]sim.Policy {
	t.Helper()
	scheme, err := core.New(sc.g, sc.m, core.Options{H: sc.h})
	if err != nil {
		t.Fatalf("%s: scheme: %v", sc.name, err)
	}
	tiered, err := policy.NewControlledTiered(scheme.Table, scheme.LinkLoads, 2)
	if err != nil {
		t.Fatalf("%s: tiered: %v", sc.name, err)
	}
	return map[string]sim.Policy{
		"single-path":  scheme.SinglePath(),
		"uncontrolled": scheme.Uncontrolled(),
		"controlled":   scheme.Controlled(),
		"tiered":       tiered,
	}
}

// TestCompiledEngineSelection pins down which policies take the fast
// path: all four table-driven schemes compile, the Ott–Krishnan
// comparator and any wrapped policy do not.
func TestCompiledEngineSelection(t *testing.T) {
	sc := goldenScenarios(t)[1] // ring6
	for name, pol := range compiledGoldenPolicies(t, sc) {
		if !sim.CompilesFor(pol, sc.g) {
			t.Errorf("%s: expected the compiled engine", name)
		}
		if sim.CompilesFor(uncompilable{pol}, sc.g) {
			t.Errorf("%s: wrapper still compiles; the interpreted forcing is broken", name)
		}
	}
	ok := goldenPolicies(t, sc)["ottkrishnan"]
	if sim.CompilesFor(ok, sc.g) {
		t.Error("ottkrishnan: compiled engine accepted a non-table policy")
	}
	// A policy compiled for one topology must not run compiled on another
	// (node/link spaces differ).
	other := goldenScenarios(t)[0]
	if sim.CompilesFor(compiledGoldenPolicies(t, sc)["controlled"], other.g) {
		t.Error("controlled(ring6): compiled engine accepted a mismatched topology")
	}
}

// runPair executes the same configuration on both engines and requires
// bit-identical Results and byte-identical JSONL event streams.
func runPair(t *testing.T, label string, cfg sim.Config) {
	t.Helper()
	if !sim.CompilesFor(cfg.Policy, cfg.Graph) {
		t.Fatalf("%s: policy does not take the compiled path; the comparison is vacuous", label)
	}
	compSink := &recordSink{}
	compCfg := cfg
	compCfg.Sink = compSink
	got, err := sim.Run(compCfg)
	if err != nil {
		t.Fatalf("%s: compiled: %v", label, err)
	}
	interpSink := &recordSink{}
	interpCfg := cfg
	interpCfg.Policy = uncompilable{cfg.Policy}
	interpCfg.Sink = interpSink
	want, err := sim.Run(interpCfg)
	if err != nil {
		t.Fatalf("%s: interpreted: %v", label, err)
	}
	requireSameResult(t, label, got, want)
	requireSameEvents(t, label, compSink.events, interpSink.events)
	if g, w := jsonlBytes(t, compSink.events), jsonlBytes(t, interpSink.events); !bytes.Equal(g, w) {
		t.Fatalf("%s: JSONL bytes diverge between engines", label)
	}
}

// TestGoldenCompiledVsInterpreted is the core fast-path guarantee over
// the full grid: three topologies, the four compilable policies, five
// seeds, replayed at GOMAXPROCS 1 and 8. The first seed of each scenario
// also runs with windowed collection to cover the Windows series.
func TestGoldenCompiledVsInterpreted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, sc := range goldenScenarios(t) {
			for pname, pol := range compiledGoldenPolicies(t, sc) {
				for si, seed := range goldenSeeds {
					label := fmt.Sprintf("gomaxprocs=%d/%s/%s/seed=%d", gmp, sc.name, pname, seed)
					windowLen := 0.0
					if si == 0 {
						windowLen = 1.0
					}
					runPair(t, label, sim.Config{
						Graph: sc.g, Policy: pol,
						Trace:  sim.GenerateTrace(sc.m, sc.horizon, seed),
						Warmup: sc.warmup, WindowLength: windowLen,
					})
				}
			}
		}
	}
}

// TestGoldenCompiledShortProtection runs a controlled policy whose R
// slice covers only a prefix of the link space — the documented
// degrade-gracefully case for protection vectors derived before a
// topology grew. The threshold builder must treat the uncovered links as
// r = 0 exactly like State.PathAdmitsAlternate, and neither engine may
// panic or diverge.
func TestGoldenCompiledShortProtection(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		full, ok := compiledGoldenPolicies(t, sc)["controlled"].(policy.Controlled)
		if !ok {
			t.Fatalf("%s: controlled golden policy is not policy.Controlled", sc.name)
		}
		short := full
		short.R = append([]int(nil), full.R[:len(full.R)/2]...)
		for _, seed := range goldenSeeds[:2] {
			label := fmt.Sprintf("%s/short-prot/seed=%d", sc.name, seed)
			runPair(t, label, sim.Config{
				Graph: sc.g, Policy: short,
				Trace:  sim.GenerateTrace(sc.m, sc.horizon, seed),
				Warmup: sc.warmup,
			})
		}
	}
}

// TestGoldenCompiledStream covers stream-fed arrivals pulled one call at
// a time with Source.Next: the compiled engine consuming an arrival Source
// must match the interpreted engine consuming an identical, independently
// constructed Source.
func TestGoldenCompiledStream(t *testing.T) {
	for _, sc := range goldenScenarios(t) {
		pol := compiledGoldenPolicies(t, sc)["controlled"]
		for _, seed := range goldenSeeds[:2] {
			label := fmt.Sprintf("%s/stream/seed=%d", sc.name, seed)
			compSrc, err := sim.NewStream(sc.m, sc.horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			interpSrc, err := sim.NewStream(sc.m, sc.horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			compSink := &recordSink{}
			got, err := sim.Run(sim.Config{
				Graph: sc.g, Policy: pol, Source: compSrc,
				Warmup: sc.warmup, Sink: compSink,
			})
			if err != nil {
				t.Fatalf("%s: compiled: %v", label, err)
			}
			interpSink := &recordSink{}
			want, err := sim.Run(sim.Config{
				Graph: sc.g, Policy: uncompilable{pol}, Source: interpSrc,
				Warmup: sc.warmup, Sink: interpSink,
			})
			if err != nil {
				t.Fatalf("%s: interpreted: %v", label, err)
			}
			requireSameResult(t, label, got, want)
			requireSameEvents(t, label, compSink.events, interpSink.events)
		}
	}
}

// TestGoldenCompiledFailurePlan drives the compiled engine through live
// failure and repair epochs — mid-run threshold rebuilds, teardown
// extraction, and both failover modes — and requires bit-identity with
// the interpreted run of the same plan. The occupancy-event stream is on
// so per-link samples around teardowns are compared too.
func TestGoldenCompiledFailurePlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, mode := range []sim.FailoverMode{sim.FailoverDrop, sim.FailoverReroute} {
			for _, seed := range []int64{3, 4} {
				label := fmt.Sprintf("gomaxprocs=%d/%s/seed=%d", gmp, mode, seed)
				cfg := failureGoldenConfig(t, mode, seed)
				cfg.OccupancyEvents = true
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: probe: %v", label, err)
				}
				if res.LostToFailure == 0 && res.FailureRerouted == 0 {
					t.Fatalf("%s: no call was torn down or rerouted; scenario too quiet", label)
				}
				runPair(t, label, cfg)
			}
		}
	}
}

// TestGoldenCompiledAdaptive exercises the hardest compiled-path corner:
// online scheme re-derivation (core.AdaptRederive) swapping the dynamic
// policy's route table and protection levels at every failure and repair
// epoch, which forces the engine to recompile mid-run. Each engine gets
// its own freshly derived AdaptiveScheme, since adaptation mutates it.
func TestGoldenCompiledAdaptive(t *testing.T) {
	sc := goldenScenarios(t)[1] // ring6
	for _, seed := range []int64{3, 5} {
		label := fmt.Sprintf("adaptive/seed=%d", seed)
		base := failureGoldenConfig(t, sim.FailoverReroute, seed)

		newAdaptive := func() (sim.Policy, func(float64, *sim.State)) {
			scheme, err := core.New(sc.g, sc.m, core.Options{H: sc.h})
			if err != nil {
				t.Fatalf("%s: scheme: %v", label, err)
			}
			a := scheme.Adaptive(core.AdaptRederive, nil)
			return a.Policy(), a.Hook()
		}

		compPol, compHook := newAdaptive()
		if !sim.CompilesFor(compPol, sc.g) {
			t.Fatalf("%s: adaptive dynamic policy does not compile", label)
		}
		compSink := &recordSink{}
		compCfg := base
		compCfg.Policy = compPol
		compCfg.TopologyHook = compHook
		compCfg.Sink = compSink
		got, err := sim.Run(compCfg)
		if err != nil {
			t.Fatalf("%s: compiled: %v", label, err)
		}

		interpPol, interpHook := newAdaptive()
		interpSink := &recordSink{}
		interpCfg := base
		interpCfg.Policy = uncompilable{interpPol}
		interpCfg.TopologyHook = interpHook
		interpCfg.Sink = interpSink
		want, err := sim.Run(interpCfg)
		if err != nil {
			t.Fatalf("%s: interpreted: %v", label, err)
		}

		requireSameResult(t, label, got, want)
		requireSameEvents(t, label, compSink.events, interpSink.events)
		if g, w := jsonlBytes(t, compSink.events), jsonlBytes(t, interpSink.events); !bytes.Equal(g, w) {
			t.Fatalf("%s: JSONL bytes diverge between engines", label)
		}
	}
}

// TestGoldenCompiledRecompileFails covers a mid-run recompile that fails:
// the dynamic policy compiles at run start, but the TopologyHook swaps it
// onto a table built for another graph (ring6 plus a leaf node, which
// State.Bind rejects) at the first plan epoch and back at the third. The
// run must fall onto Policy.Route and return to the kernel with a Result
// and JSONL stream identical to the same run through the uncompilable
// wrapper.
func TestGoldenCompiledRecompileFails(t *testing.T) {
	sc := goldenScenarios(t)[1] // ring6
	wider := netmodel.Ring(6, 30)
	if _, _, err := wider.AddDuplex(0, wider.AddNodes(1), 30); err != nil {
		t.Fatal(err)
	}
	// Loop-free paths between ring nodes never cross the leaf, so the
	// foreign table's rows name only ring6 links and Route stays valid.
	foreign, err := policy.BuildMinHop(wider, sc.h)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 4} {
		label := fmt.Sprintf("recompile-fails/seed=%d", seed)
		base := failureGoldenConfig(t, sim.FailoverReroute, seed)

		var failedEpochs int
		newSwapping := func() (*policy.Dynamic, func(float64, *sim.State)) {
			scheme, err := core.New(sc.g, sc.m, core.Options{H: sc.h})
			if err != nil {
				t.Fatalf("%s: scheme: %v", label, err)
			}
			dyn := policy.NewDynamic(scheme.Table, scheme.Protection)
			epoch := 0
			hook := func(float64, *sim.State) {
				epoch++
				switch epoch {
				case 1:
					dyn.Swap(foreign, scheme.Protection)
				case 3:
					dyn.Swap(scheme.Table, scheme.Protection)
				}
				if !sim.CompilesFor(dyn, sc.g) {
					failedEpochs++
				}
			}
			return dyn, hook
		}

		compPol, compHook := newSwapping()
		if !sim.CompilesFor(compPol, sc.g) {
			t.Fatalf("%s: dynamic policy does not compile at run start", label)
		}
		compSink := &recordSink{}
		compCfg := base
		compCfg.Policy = compPol
		compCfg.TopologyHook = compHook
		compCfg.Sink = compSink
		got, err := sim.Run(compCfg)
		if err != nil {
			t.Fatalf("%s: compiled: %v", label, err)
		}
		if failedEpochs != 2 {
			t.Fatalf("%s: recompile failed at %d plan epochs, want 2 (plan too short?)", label, failedEpochs)
		}

		interpPol, interpHook := newSwapping()
		interpSink := &recordSink{}
		interpCfg := base
		interpCfg.Policy = uncompilable{interpPol}
		interpCfg.TopologyHook = interpHook
		interpCfg.Sink = interpSink
		want, err := sim.Run(interpCfg)
		if err != nil {
			t.Fatalf("%s: interpreted: %v", label, err)
		}

		requireSameResult(t, label, got, want)
		requireSameEvents(t, label, compSink.events, interpSink.events)
		if g, w := jsonlBytes(t, compSink.events), jsonlBytes(t, interpSink.events); !bytes.Equal(g, w) {
			t.Fatalf("%s: JSONL bytes diverge between engines", label)
		}
	}
}
