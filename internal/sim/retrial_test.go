package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/traffic"
)

func retrialFixture(t *testing.T) (*graph.Graph, paths.Path, *traffic.Matrix) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	id := g.MustAddLink(a, b, 10)
	p := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{id}}
	m := traffic.NewMatrix(2)
	m.SetDemand(0, 1, 11)
	return g, p, m
}

func TestRetrialZeroProbabilityMatchesRun(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 110, 1)
	want, err := Run(Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWithRetrials(RetrialConfig{
		Config: Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With no retries the run is Run's, result for result: the same
	// counters, and each link's occupancy integral flushed at the same
	// epochs, so LinkTimeUtil matches to the bit.
	requireIdenticalResult(t, "p=0 retrials", &got.Result, want)
	if got.Retries != 0 || got.RetrySuccesses != 0 {
		t.Errorf("p=0 generated retries: %d/%d", got.Retries, got.RetrySuccesses)
	}
}

// requireIdenticalResult fails unless got equals want field by field,
// every float compared by its bits (so +0 and −0 differ).
func requireIdenticalResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	bits := func(r *Result) []uint64 {
		b := []uint64{math.Float64bits(r.Span)}
		for _, u := range r.LinkTimeUtil {
			b = append(b, math.Float64bits(u))
		}
		for _, w := range r.Windows {
			b = append(b, math.Float64bits(w.Start), math.Float64bits(w.End))
		}
		return b
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(bits(got), bits(want)) {
		t.Fatalf("%s: Result\n%+v\nwant\n%+v", label, *got, *want)
	}
}

func TestRetrialsRescueSomeCalls(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 210, 2)
	base, err := RunWithRetrials(RetrialConfig{
		Config: Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	retried, err := RunWithRetrials(RetrialConfig{
		Config:           Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 10},
		RetryProbability: 0.8,
		MeanBackoff:      0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if retried.Retries == 0 || retried.RetrySuccesses == 0 {
		t.Fatalf("no retrial activity: retries=%d successes=%d", retried.Retries, retried.RetrySuccesses)
	}
	// Retrials rescue calls: final blocking drops below the no-retry run.
	if retried.Blocked >= base.Blocked {
		t.Errorf("retrials did not reduce definitive blocking: %d vs %d",
			retried.Blocked, base.Blocked)
	}
	// Conservation still holds on first-attempt accounting.
	if retried.Offered != retried.Accepted+retried.Blocked {
		t.Errorf("conservation: %d != %d + %d", retried.Offered, retried.Accepted, retried.Blocked)
	}
	// Rescued calls add carried time: the window is set and the link's
	// time-average occupancy rises but stays within its capacity.
	if retried.Span != 200 || math.IsNaN(retried.Throughput()) {
		t.Errorf("span %v, throughput %v", retried.Span, retried.Throughput())
	}
	if u := retried.LinkTimeUtil[0]; !(u > base.LinkTimeUtil[0]) || u > 10 {
		t.Errorf("utilization %v with retrials, %v without (capacity 10)", u, base.LinkTimeUtil[0])
	}
}

func TestRetrialValidation(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 20, 1)
	if _, err := RunWithRetrials(RetrialConfig{
		Config:           Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr},
		RetryProbability: 1.5,
	}); err == nil {
		t.Error("bad probability: want error")
	}
	if _, err := RunWithRetrials(RetrialConfig{}); err == nil {
		t.Error("empty config: want error")
	}
	if _, err := RunWithRetrials(RetrialConfig{
		Config: Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr, Warmup: 99},
	}); err == nil {
		t.Error("warmup past horizon: want error")
	}
}

// unhonoured returns base with, in turn, each Config field set that
// RunWithRetrials and RunSignaling do not honour: a sink, windows, a
// failure plan and a topology hook.
func unhonoured(base Config) []struct {
	field string
	cfg   Config
} {
	sink, windows, failures, hook := base, base, base, base
	sink.Sink = obs.NullSink{}
	windows.WindowLength = 5
	failures.Failures = &FailurePlan{}
	failures.Failures.Add(15, 0, true)
	hook.TopologyHook = func(float64, *State) {}
	return []struct {
		field string
		cfg   Config
	}{{"Sink", sink}, {"WindowLength", windows}, {"Failures", failures}, {"TopologyHook", hook}}
}

// TestRetrialRefusesUnhonouredConfig: a Config field the retrial engine
// would silently ignore is an error.
func TestRetrialRefusesUnhonouredConfig(t *testing.T) {
	g, p, m := retrialFixture(t)
	base := Config{Graph: g, Policy: fixedPolicy{p}, Trace: GenerateTrace(m, 20, 1)}
	if _, err := RunWithRetrials(RetrialConfig{Config: base, RetryProbability: 0.5}); err != nil {
		t.Fatalf("base config: %v", err)
	}
	for _, c := range unhonoured(base) {
		if _, err := RunWithRetrials(RetrialConfig{Config: c.cfg, RetryProbability: 0.5}); err == nil {
			t.Errorf("%s set: want error", c.field)
		}
	}
}

// TestRetrialRejectsNonFiniteInputs: a NaN or infinite back-off, or a NaN
// retry probability, passes the ordered comparisons of a range check and
// would silently turn every retry into a loss; each must be an error.
func TestRetrialRejectsNonFiniteInputs(t *testing.T) {
	g, p, m := retrialFixture(t)
	tr := GenerateTrace(m, 20, 1)
	for _, c := range []struct {
		name          string
		prob, backoff float64
	}{
		{"NaN back-off", 0.5, math.NaN()},
		{"infinite back-off", 0.5, math.Inf(1)},
		{"NaN retry probability", math.NaN(), 0.2},
	} {
		if _, err := RunWithRetrials(RetrialConfig{
			Config:           Config{Graph: g, Policy: fixedPolicy{p}, Trace: tr},
			RetryProbability: c.prob,
			MeanBackoff:      c.backoff,
		}); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}
