package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/paths"
)

// TestDepartureQueueExtractKeepsOrder covers what departureQueue adds to
// the calendar (whose own ordering FuzzQueueMatchesReference pins): pooled
// paths, the side list of a run with failure events, and extraction
// across both. Extraction takes every hit, calendar and side
// list alike; the survivors pop in (epoch, push) order and the side list
// keeps its push order.
func TestDepartureQueueExtractKeepsOrder(t *testing.T) {
	base := make([]graph.LinkID, 64)
	for i := range base {
		base[i] = graph.LinkID(i)
	}
	const horizon = 10.0
	var q departureQueue
	q.init(horizon, true)
	q.base = base
	// Ids 0–19: epochs cycle 4, 12, 4, 12 …, so half lie past the horizon
	// and the ones inside share one epoch (a push-order tie). With
	// failure events every path goes through the pool, compiled rows
	// included.
	for id := int32(0); id < 20; id++ {
		at := 4.0
		if id%2 == 1 {
			at = 12
		}
		q.push(at, paths.Path{Links: base[id : id+1]}, depMeta{id: int64(id)})
	}
	torn := q.extract(func(p paths.Path) bool { return p.Links[0]%3 == 0 })
	got := map[int64]bool{}
	for _, tc := range torn {
		if int64(tc.path.Links[0]) != tc.meta.id {
			t.Fatalf("extracted id %d carries link %d", tc.meta.id, tc.path.Links[0])
		}
		got[tc.meta.id] = true
	}
	for id := int64(0); id < 20; id++ {
		if got[id] != (id%3 == 0) {
			t.Fatalf("id %d extracted = %v", id, got[id])
		}
	}
	var popped []graph.LinkID
	for {
		e, ok := q.cal.PopTo(horizon)
		if !ok {
			break
		}
		popped = append(popped, q.release(e).Links[0])
	}
	want := []graph.LinkID{2, 4, 8, 10, 14, 16}
	if len(popped) != len(want) {
		t.Fatalf("popped %v, want %v", popped, want)
	}
	for i := range want {
		if popped[i] != want[i] {
			t.Fatalf("popped %v, want %v", popped, want)
		}
	}
	wantSide := []int64{1, 5, 7, 11, 13, 17, 19}
	if len(q.side) != len(wantSide) {
		t.Fatalf("side list holds %d entries, want %d", len(q.side), len(wantSide))
	}
	for i, e := range q.side {
		if q.meta[e.N].id != wantSide[i] {
			t.Fatalf("side[%d] is id %d, want %d", i, q.meta[e.N].id, wantSide[i])
		}
	}
}
