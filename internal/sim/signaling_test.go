package sim

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/traffic"
)

// attemptFixed adapts fixedPolicy to AttemptPolicy for signaling tests.
type attemptFixed struct {
	fixedPolicy
}

func (a attemptFixed) Attempt(c Call, i int) (paths.Path, bool, bool) {
	if i != 0 {
		return paths.Path{}, false, false
	}
	return a.path, false, true
}

func (a attemptFixed) AdmitsHop(s *State, id graph.LinkID, _ bool) bool {
	return s.AdmitsPrimary(id)
}

// twoAttempt tries a primary then one alternate, both plain capacity.
type twoAttempt struct {
	primary, alt paths.Path
}

func (t twoAttempt) Name() string                        { return "two-attempt" }
func (t twoAttempt) PrimaryPath(*State, Call) paths.Path { return t.primary }
func (t twoAttempt) Route(s *State, c Call) (paths.Path, bool, bool) {
	if ok, _ := s.PathAdmitsPrimary(t.primary); ok {
		return t.primary, false, true
	}
	if ok, _ := s.PathAdmitsPrimary(t.alt); ok {
		return t.alt, true, true
	}
	return paths.Path{}, false, false
}
func (t twoAttempt) Attempt(c Call, i int) (paths.Path, bool, bool) {
	switch i {
	case 0:
		return t.primary, false, true
	case 1:
		return t.alt, true, true
	}
	return paths.Path{}, false, false
}
func (t twoAttempt) AdmitsHop(s *State, id graph.LinkID, _ bool) bool {
	return s.AdmitsPrimary(id)
}

func signalingFixture(t *testing.T) (*graph.Graph, paths.Path, paths.Path, *traffic.Matrix) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 10)
	ac := g.MustAddLink(a, c, 10)
	cb := g.MustAddLink(c, b, 10)
	primary := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{ab}}
	alt := paths.Path{Nodes: []graph.NodeID{a, c, b}, Links: []graph.LinkID{ac, cb}}
	m := traffic.NewMatrix(3)
	m.SetDemand(0, 1, 9)
	return g, primary, alt, m
}

func TestSignalingZeroDelayMatchesRun(t *testing.T) {
	g, primary, alt, m := signalingFixture(t)
	pol := twoAttempt{primary: primary, alt: alt}
	for seed := int64(0); seed < 4; seed++ {
		tr := GenerateTrace(m, 120, seed)
		want, err := Run(Config{Graph: g, Policy: pol, Trace: tr, Warmup: 10})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSignaling(SignalingConfig{
			Config: Config{Graph: g, Policy: pol, Trace: tr, Warmup: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != want.Accepted || got.Blocked != want.Blocked ||
			got.AlternateAccepted != want.AlternateAccepted {
			t.Errorf("seed %d: signaling (acc %d blk %d alt %d) vs instantaneous (acc %d blk %d alt %d)",
				seed, got.Accepted, got.Blocked, got.AlternateAccepted,
				want.Accepted, want.Blocked, want.AlternateAccepted)
		}
		if got.BookingFailures != 0 {
			t.Errorf("seed %d: %d booking failures with zero delay", seed, got.BookingFailures)
		}
		if got.SetupRTTSum != 0 {
			t.Errorf("seed %d: nonzero RTT with zero delay", seed)
		}
	}
}

func TestSignalingDelayDegradesGracefully(t *testing.T) {
	g, primary, alt, m := signalingFixture(t)
	pol := twoAttempt{primary: primary, alt: alt}
	tr := GenerateTrace(m, 220, 5)
	base, err := RunSignaling(SignalingConfig{
		Config: Config{Graph: g, Policy: pol, Trace: tr, Warmup: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := RunSignaling(SignalingConfig{
		Config:   Config{Graph: g, Policy: pol, Trace: tr, Warmup: 10},
		HopDelay: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Offered != base.Offered {
		t.Fatalf("offered differ: %d vs %d", delayed.Offered, base.Offered)
	}
	// With latency the call spends the RTT before commencing; mean RTT for
	// an accepted 1-hop call is ~3 events × 0.02.
	if delayed.Accepted > 0 {
		rtt := delayed.SetupRTTSum / float64(delayed.Accepted)
		if rtt <= 0 || rtt > 0.2 {
			t.Errorf("mean setup RTT %v implausible", rtt)
		}
	}
	// Blocking with latency must not be dramatically different at this
	// moderate load (sanity band, not exact equality).
	if db, bb := delayed.Blocking(), base.Blocking(); math.Abs(db-bb) > 0.05 {
		t.Errorf("blocking moved from %v to %v under 0.02 hop delay", bb, db)
	}
}

func TestSignalingBookingRace(t *testing.T) {
	// Capacity-1 direct link and a demand stream dense enough that forward
	// checks pass concurrently: with a large hop delay some bookings must
	// fail and be retried on the alternate or blocked — and link occupancy
	// accounting must stay consistent (no panic from Release/Occupy).
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	ab := g.MustAddLink(a, b, 1)
	ac := g.MustAddLink(a, c, 1)
	cb := g.MustAddLink(c, b, 1)
	primary := paths.Path{Nodes: []graph.NodeID{a, b}, Links: []graph.LinkID{ab}}
	alt := paths.Path{Nodes: []graph.NodeID{a, c, b}, Links: []graph.LinkID{ac, cb}}
	m := traffic.NewMatrix(3)
	m.SetDemand(0, 1, 6)
	pol := twoAttempt{primary: primary, alt: alt}
	tr := GenerateTrace(m, 120, 3)
	res, err := RunSignaling(SignalingConfig{
		Config:   Config{Graph: g, Policy: pol, Trace: tr, Warmup: 10},
		HopDelay: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != res.Accepted+res.Blocked {
		t.Errorf("conservation: %d != %d + %d", res.Offered, res.Accepted, res.Blocked)
	}
	if res.Accepted == 0 || res.Blocked == 0 {
		t.Errorf("degenerate run: accepted %d blocked %d", res.Accepted, res.Blocked)
	}
}

func TestSignalingValidation(t *testing.T) {
	g, primary, alt, m := signalingFixture(t)
	pol := twoAttempt{primary: primary, alt: alt}
	tr := GenerateTrace(m, 30, 1)
	if _, err := RunSignaling(SignalingConfig{
		Config: Config{Graph: g, Policy: pol, Trace: tr}, HopDelay: -1,
	}); err == nil {
		t.Error("negative delay: want error")
	}
	if _, err := RunSignaling(SignalingConfig{
		Config: Config{Graph: g, Policy: fixedPolicy{primary}, Trace: tr},
	}); err == nil {
		t.Error("non-AttemptPolicy: want error")
	}
	if _, err := RunSignaling(SignalingConfig{}); err == nil {
		t.Error("empty config: want error")
	}
}

// TestSignalingRejectsNonFiniteDelay: a NaN hop delay passes a sign check
// and puts every set-up event at a NaN epoch (a heap engine then admitted
// every call of signalingFixture at 9 Erlangs on a 10-circuit link); an
// infinite one, or a finite one whose set-up chains overflow past the
// horizon, schedules events no queue can order. Each must be an error.
func TestSignalingRejectsNonFiniteDelay(t *testing.T) {
	g, primary, alt, m := signalingFixture(t)
	pol := twoAttempt{primary: primary, alt: alt}
	tr := GenerateTrace(m, 30, 1)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		if _, err := RunSignaling(SignalingConfig{
			Config: Config{Graph: g, Policy: pol, Trace: tr}, HopDelay: d,
		}); err == nil {
			t.Errorf("hop delay %v: want error", d)
		}
	}
}

// TestSignalingZeroHopCandidateCommences: a candidate with no links (the
// empty path a table yields for a pair without primaries) books nothing,
// so the call commences when its check reaches the destination and is
// carried as Run carries it, instead of indexing hop −1 of the path.
func TestSignalingZeroHopCandidateCommences(t *testing.T) {
	g, _, _, m := signalingFixture(t)
	pol := attemptFixed{fixedPolicy{paths.Path{}}}
	tr := GenerateTrace(m, 30, 1)
	want, err := Run(Config{Graph: g, Policy: pol, Trace: tr, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, 0.01} {
		got, err := RunSignaling(SignalingConfig{Config: Config{Graph: g, Policy: pol, Trace: tr, Warmup: 5}, HopDelay: d})
		if err != nil {
			t.Fatal(err)
		}
		if got.Offered == 0 || got.Accepted != want.Accepted || got.Blocked != 0 || got.CarriedHopCount != 0 {
			t.Fatalf("hop delay %v: offered %d, accepted %d, blocked %d, hops %d; Run accepted %d",
				d, got.Offered, got.Accepted, got.Blocked, got.CarriedHopCount, want.Accepted)
		}
		if rtt := got.SetupRTTSum / float64(got.Accepted); math.Abs(rtt-d) > 1e-12 {
			t.Fatalf("hop delay %v: mean set-up RTT %v, want one hop delay", d, rtt)
		}
	}
}
