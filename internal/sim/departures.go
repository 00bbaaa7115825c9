package sim

import (
	"repro/internal/calendar"
	"repro/internal/graph"
	"repro/internal/paths"
)

// depEntry is one scheduled teardown: its epoch and the call's path in one
// of two encodings. Ref >= 0 names the row slice base[Ref:Ref+N] of the
// compiled route table the call was admitted from — the common case on the
// fast path, costing no pool traffic at all. Ref < 0 means the path lives
// in pool slot N (arbitrary interpreted or rerouted paths, and every entry
// of a run with failure events, whose extraction machinery needs the
// pooled meta).
type depEntry = calendar.Entry

// departureQueue schedules call teardowns on the calendar queue
// (internal/calendar), whose equal epochs pop in push order, and keeps
// the departing calls' paths: a row reference in the entry itself, or a
// slot of a path pool reused across departures, so steady-state queue
// traffic allocates nothing.
//
// An entry past the horizon can never pop — the run drains only up to the
// horizon — so the calendar refuses it; a run with failure events parks
// it on a side list that only extract scans.
type departureQueue struct {
	cal  calendar.Queue
	side []depEntry // entries past the horizon, in push order

	pool []paths.Path
	meta []depMeta // call identity of each pool slot (failure teardowns)
	free []int32   // reusable pool slots
	// base is the compiled route table's link array (routetable.Flat.Links)
	// that ref-encoded entries slice into; nil for interpreted runs, which
	// never create such entries.
	base []graph.LinkID
	// needMeta is set when the run has failure-plan events: only then can
	// extract ever read meta, so plan-less runs skip the per-push meta
	// store entirely. It also makes the event loop push compiled rows
	// through the pool instead of inserting row references, so extraction
	// — which happens only on such runs — always finds pooled entries with
	// meta, even across mid-run recompiles that would invalidate ref
	// encodings.
	needMeta bool
}

// depMeta is the call identity carried alongside each pooled path so the
// failure machinery can name and re-route in-flight calls; the plan-less
// hot path never reads it.
type depMeta struct {
	id           int64
	origin, dest int32
}

// init empties the queue for a run whose departures pop up to horizon
// (finite and positive).
func (q *departureQueue) init(horizon float64, needMeta bool) {
	*q = departureQueue{needMeta: needMeta}
	q.cal.Init(horizon)
}

// push schedules a teardown of path p at epoch at for the call identified
// by m, storing the path in the pool.
//
//altlint:hotpath
func (q *departureQueue) push(at float64, p paths.Path, m depMeta) {
	var s int32
	if n := len(q.free); n > 0 {
		s = q.free[n-1]
		q.free = q.free[:n-1]
		q.pool[s] = p
		if q.needMeta {
			q.meta[s] = m
		}
	} else {
		s = int32(len(q.pool))
		q.pool = append(q.pool, p)
		if q.needMeta {
			q.meta = append(q.meta, m)
		}
	}
	if e := (depEntry{At: at, Ref: -1, N: s}); !q.cal.Insert(e) && q.needMeta {
		q.side = append(q.side, e)
	}
}

// release decodes a popped entry's path (popped with cal.PopTo) and
// returns its pool slot, if any, to the free list. The pooled path is only valid until the slot is
// reused by the next push.
func (q *departureQueue) release(e depEntry) paths.Path {
	if e.Ref >= 0 {
		return paths.Path{Links: q.base[e.Ref : e.Ref+e.N]}
	}
	q.free = append(q.free, e.N)
	return q.pool[e.N]
}

// torndown is one in-flight call removed from the queue by a link failure.
type torndown struct {
	at   float64 // the cancelled departure epoch (arrival + holding)
	path paths.Path
	meta depMeta
}

// extract removes every scheduled departure whose path satisfies hit,
// side list included: the survivors keep their order, so the push-order
// tie rule holds across extraction. The extracted paths are copies of the
// pool entries, so they stay valid across later pushes. Extraction follows
// bucket order — callers sort the result (by call id) before acting on
// it, so the simulation never depends on queue layout.
func (q *departureQueue) extract(hit func(paths.Path) bool) []torndown {
	var out []torndown
	// Extraction only happens on runs with failure events, where needMeta
	// forces every entry through the pool (see needMeta).
	take := func(e depEntry) bool {
		if !hit(q.pool[e.N]) {
			return false
		}
		out = append(out, torndown{at: e.At, path: q.pool[e.N], meta: q.meta[e.N]})
		q.free = append(q.free, e.N)
		return true
	}
	q.cal.RemoveIf(take)
	kept := q.side[:0]
	for _, e := range q.side {
		if !take(e) {
			kept = append(kept, e)
		}
	}
	q.side = kept
	return out
}
