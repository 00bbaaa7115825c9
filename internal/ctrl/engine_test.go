package ctrl

import (
	"errors"
	"net/http"
	"testing"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
)

// quadranglePolicy builds a Controlled policy over the quadrangle with
// uniform per-link loads.
func quadranglePolicy(t *testing.T, g *graph.Graph, load float64) policy.Controlled {
	t.Helper()
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, g.NumLinks())
	for i := range loads {
		loads[i] = load
	}
	p, err := policy.NewControlled(tbl, loads)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEngineAdmitReleaseLifecycle(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	e, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := e.Admit(0.5, 1, 0, 1)
	if err != nil || !dec.Admitted || dec.Alternate {
		t.Fatalf("first admit: %+v, %v", dec, err)
	}
	if len(dec.Links) != 1 {
		t.Fatalf("direct route should be one hop, got %d", len(dec.Links))
	}
	if got := e.State().Occupancy(dec.Links[0]); got != 1 {
		t.Fatalf("occupancy %d after admit", got)
	}

	// Duplicate id while in flight: rejected, counted, nothing booked.
	if _, err := e.Admit(0.6, 1, 0, 2); !errors.Is(err, ErrDuplicateCall) {
		t.Fatalf("duplicate admit: %v", err)
	}
	// Bad endpoints.
	if _, err := e.Admit(0.6, 7, 0, 0); !errors.Is(err, ErrBadNode) {
		t.Fatalf("self-loop admit: %v", err)
	}
	if _, err := e.Admit(0.6, 7, 0, 99); !errors.Is(err, ErrBadNode) {
		t.Fatalf("out-of-range admit: %v", err)
	}

	if err := e.Release(1); err != nil {
		t.Fatalf("release: %v", err)
	}
	if got := e.State().Occupancy(dec.Links[0]); got != 0 {
		t.Fatalf("occupancy %d after release", got)
	}
	// Double release: typed error, metric, no panic, no corruption.
	if err := e.Release(1); !errors.Is(err, ErrUnknownCall) {
		t.Fatalf("double release: %v", err)
	}
	m := e.Metrics()
	if m.Offered != 1 || m.Admitted != 1 || m.Released != 1 ||
		m.DuplicateAdmits != 1 || m.UnknownReleases != 1 || m.InFlight != 0 {
		t.Errorf("metrics %+v", m)
	}
}

// TestEngineAlternateAndBlocking saturates the direct link and checks the
// alternate scan and first-blocking-link attribution match the scheme's
// semantics: alternates carry overflow while protection admits them, and
// a lost call is attributed to the primary's first blocking link.
func TestEngineAlternateAndBlocking(t *testing.T) {
	// Tiny custom mesh: duplex triangle with capacity 2 and protection 1.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	for _, pair := range [][2]graph.NodeID{{a, b}, {b, c}, {a, c}} {
		if _, _, err := g.AddDuplex(pair[0], pair[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := policy.BuildMinHop(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int, g.NumLinks())
	for i := range r {
		r[i] = 1
	}
	e, err := NewEngine(g, nil, policy.Controlled{T: tbl, R: r}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the direct a→b link (capacity 2).
	for id := int64(1); id <= 2; id++ {
		dec, err := e.Admit(float64(id), id, a, b)
		if err != nil || !dec.Admitted || dec.Alternate {
			t.Fatalf("fill admit %d: %+v, %v", id, dec, err)
		}
	}
	// Next a→b call overflows to the alternate a→c→b: both alternate links
	// are at occupancy 0 <= C−r−1 = 0.
	dec, err := e.Admit(3, 3, a, b)
	if err != nil || !dec.Admitted || !dec.Alternate || len(dec.Links) != 2 {
		t.Fatalf("overflow admit: %+v, %v", dec, err)
	}
	// A fourth call finds the alternate protected (its links now at
	// occupancy 1 > 0) and is lost at the direct link.
	direct := g.LinkBetween(a, b)
	dec, err = e.Admit(4, 4, a, b)
	if err != nil || dec.Admitted {
		t.Fatalf("expected loss: %+v, %v", dec, err)
	}
	if dec.BlockedAt != direct {
		t.Errorf("loss attributed to link %d, want direct %d", dec.BlockedAt, direct)
	}
}

// TestEngineTopologyRecompile fails a link and checks the thresholds
// refuse it immediately (and admit again after repair), the same rebuild
// the simulation engines perform at failure epochs.
func TestEngineTopologyRecompile(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 10)
	e, err := NewEngine(g, nil, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.LinkBetween(0, 1)
	e.SetLinkDown(direct, true)
	dec, err := e.Admit(1, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || !dec.Alternate {
		t.Fatalf("admission over degraded topology: %+v (want alternate)", dec)
	}
	for _, id := range dec.Links {
		if id == direct {
			t.Error("booked the down link")
		}
	}
	e.SetLinkDown(direct, false)
	dec, err = e.Admit(2, 2, 0, 1)
	if err != nil || !dec.Admitted || dec.Alternate {
		t.Fatalf("admission after repair: %+v, %v", dec, err)
	}
}

// TestEngineEstimatorFeedback checks observed set-ups reach the EWMA
// estimator with the paper's first-blocking-link convention.
func TestEngineEstimatorFeedback(t *testing.T) {
	g := netmodel.Quadrangle()
	pol := quadranglePolicy(t, g, 85)
	est, err := estimate.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, pol, est)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.LinkBetween(0, 1)
	for i := int64(0); i < 10; i++ {
		if _, err := e.Admit(float64(i)*0.1, i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	est.Advance(1.5) // folds window [0,1) only
	if got := est.Estimate(direct); got != 10 {
		t.Errorf("estimated Λ̂ = %v, want 10 (10 set-ups in one unit window)", got)
	}
}

// TestEngineRefusesAdmitsWhileUncompiled makes Recompile fail — the
// dynamic policy is swapped onto a table built for another graph, which
// State.Bind rejects — and checks the engine refuses to decide rather than
// use stale thresholds: Admit returns ErrNotCompiled (HTTP 503) without
// touching occupancy, the counters or the estimator, calls already in
// flight still release, and the next successful Recompile restores
// admissions.
func TestEngineRefusesAdmitsWhileUncompiled(t *testing.T) {
	g := netmodel.Quadrangle()
	ctl := quadranglePolicy(t, g, 85)
	dyn := policy.NewDynamic(ctl.T, ctl.R)
	est, err := estimate.New(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, nil, dyn, est)
	if err != nil {
		t.Fatal(err)
	}
	direct := g.LinkBetween(0, 1)
	for id := int64(0); id < 3; id++ {
		if dec, err := e.Admit(0.1*float64(id), id, 0, 1); err != nil || !dec.Admitted {
			t.Fatalf("admit %d while compiled: %+v, %v", id, dec, err)
		}
	}

	// The quadrangle plus a leaf node: a node and link count the live
	// state's Bind refuses.
	wider := netmodel.Quadrangle()
	if _, _, err := wider.AddDuplex(0, wider.AddNodes(1), 10); err != nil {
		t.Fatal(err)
	}
	tbl, err := policy.BuildMinHop(wider, 0)
	if err != nil {
		t.Fatal(err)
	}
	dyn.Swap(tbl, ctl.R)
	if e.Recompile() {
		t.Fatal("Recompile bound a table built for another graph")
	}
	occ, before := e.State().TotalOccupancy(), e.Metrics()
	for id := int64(10); id < 15; id++ {
		dec, err := e.Admit(0.5, id, 0, 1)
		if !errors.Is(err, ErrNotCompiled) || dec.Admitted {
			t.Fatalf("admit %d while uncompiled: %+v, %v (want ErrNotCompiled)", id, dec, err)
		}
		if got := errStatus(err); got != http.StatusServiceUnavailable {
			t.Errorf("errStatus(ErrNotCompiled) = %d, want 503", got)
		}
	}
	if got := e.State().TotalOccupancy(); got != occ {
		t.Errorf("occupancy %d after refused admits, want %d", got, occ)
	}
	if m := e.Metrics(); m.Offered != before.Offered || m.Admitted != before.Admitted || m.Blocked != before.Blocked {
		t.Errorf("refused admits moved the decision counters: %+v -> %+v", before, m)
	}
	if err := e.Release(0); err != nil {
		t.Fatalf("release of an in-flight call while uncompiled: %v", err)
	}
	if got := e.State().Occupancy(direct); got != 2 {
		t.Errorf("direct link occupancy %d after one release, want 2", got)
	}
	est.Advance(1.5) // folds window [0,1)
	if got := est.Estimate(direct); got != 3 {
		t.Errorf("estimated Λ̂ = %v, want 3: refused admits reached the estimator", got)
	}

	dyn.Swap(ctl.T, ctl.R)
	if !e.Recompile() {
		t.Fatal("Recompile failed after the original table was restored")
	}
	if dec, err := e.Admit(1.6, 10, 0, 1); err != nil || !dec.Admitted || dec.Alternate {
		t.Fatalf("admit after a successful Recompile: %+v, %v", dec, err)
	}
}
