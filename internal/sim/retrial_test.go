package sim

import (
	"math"
	"testing"

	"repro/internal/graph"
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
	if got.Accepted != want.Accepted || got.Blocked != want.Blocked {
		t.Errorf("p=0 retrials: (%d,%d) vs plain (%d,%d)",
			got.Accepted, got.Blocked, want.Accepted, want.Blocked)
	}
	if got.Retries != 0 || got.RetrySuccesses != 0 {
		t.Errorf("p=0 generated retries: %d/%d", got.Retries, got.RetrySuccesses)
	}
	// The rest of the Result is filled too: the window and the time-average
	// occupancy agree with Run's (to rounding: Run integrates each link
	// lazily, so its float sums split at different epochs).
	if got.Span != want.Span || got.Throughput() != want.Throughput() {
		t.Errorf("p=0 retrials: span %v throughput %v, plain %v %v",
			got.Span, got.Throughput(), want.Span, want.Throughput())
	}
	for id, w := range want.LinkTimeUtil {
		if w <= 0 || math.Abs(got.LinkTimeUtil[id]-w) > 1e-9*w {
			t.Errorf("p=0 retrials: link %d utilization %v, plain %v", id, got.LinkTimeUtil[id], w)
		}
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
