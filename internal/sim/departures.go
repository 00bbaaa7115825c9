package sim

import (
	"math"

	"repro/internal/graph"
	"repro/internal/paths"
)

// depEntry is one scheduled teardown: its epoch and the call's path in one
// of two encodings. ref >= 0 names the row slice base[ref:ref+n] of the
// compiled route table the call was admitted from — the common case on the
// fast path, costing no pool traffic at all. ref < 0 means the path lives
// in pool slot n (arbitrary interpreted or rerouted paths, and every entry
// of a run with failure events, whose extraction machinery needs the
// pooled meta). The queue moves these 16-byte values — no interface
// boxing, no pointer writes, no write barriers.
type depEntry struct {
	at  float64 // departure epoch
	ref int32   // offset into base, or < 0 for a pooled path
	n   int32   // hop count (ref >= 0) or pool slot (ref < 0)
}

// depNode is one calendar slot: an entry and the index of the next node
// of its bucket list (or of the free list), −1 ending either list.
type depNode struct {
	depEntry
	next int32
}

// minBuckets is the calendar's floor. Below it a direct search reads at
// most 16 bucket heads, as cheap as the few comparisons a tiny queue
// needs anyway, so halving further saves nothing.
const minBuckets = 16

// departureQueue schedules call teardowns. It is a calendar queue (Brown,
// "Calendar queues", CACM 1988): nb buckets, nb a power of two, each
// covering an epoch interval of width w = 2^-k. An entry at epoch t lives
// in virtual bucket v = ⌊t·2^k⌋, stored in bucket v mod nb on a list kept
// sorted by (epoch, push order). The front is found by walking virtual
// buckets from cur, the bucket of the last front, and taking the first
// list head that falls inside its virtual bucket; a whole empty cycle of
// buckets falls back to a direct search over the heads.
//
// Sizing has no knob. nb doubles when more than 2·nb entries are queued
// and halves when fewer than nb/4 are, never below minBuckets — the
// hysteresis keeps a steady population from rebuilding repeatedly. Every
// resize rebuilds the calendar and resets the width to the power of two
// nearest 3·mean(t − min t)/n over the queued entries (see fit). A
// power-of-two width makes t·2^k exact, so bucket boundaries involve no
// rounding.
//
// Equal epochs pop in push order: a push is linked after every equal
// epoch already in its bucket, and rebuilds and extraction relink entries
// in list order, which equal epochs share (they share a bucket).
//
// An entry past the horizon can never pop — the run drains only up to the
// horizon — so it is parked on a side list that only extract scans.
//
// Nodes live in one slice under an intrusive free list and call paths in a
// pooled slice reused across departures, so steady-state queue traffic
// allocates nothing.
type departureQueue struct {
	nodes    []depNode
	head     []int32 // first node of each bucket's list, −1 when empty
	freeNode int32   // first node of the free list, −1 when empty
	mask     int64   // nb − 1
	n        int     // entries in the calendar (side excluded)
	growAt   int     // resize when n exceeds this
	shrinkAt int     // resize when n falls below this

	// cur is the virtual bucket the front is searched from; no calendar
	// entry lies before it. top = (cur+1)·w is that bucket's end.
	cur          int64
	top          float64
	scale, width float64 // 2^k and w = 2^-k
	kmax         int     // largest k the horizon allows (see init)

	horizon float64
	side    []depEntry // entries past the horizon, in push order

	pool []paths.Path
	meta []depMeta // call identity of each pool slot (failure teardowns)
	free []int32   // reusable pool slots
	// base is the compiled route table's link array (routetable.Flat.Links)
	// that ref-encoded entries slice into; nil for interpreted runs, which
	// never create such entries.
	base []graph.LinkID
	// needMeta is set when the run has failure-plan events: only then can
	// extract ever read meta, so plan-less runs skip the per-push meta
	// store entirely. It also forces every push through the pool (pushRow
	// included), so extraction — which happens only on such runs — always
	// finds pooled entries with meta, even across mid-run recompiles that
	// would invalidate ref encodings.
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
// (finite and positive). kmax keeps horizon·2^k below 2^53, so every
// virtual bucket index, and the bucket end (cur+1)·w, is an exact integer
// multiple of w in float64 and far inside int64; it also keeps 2^k and
// 2^-k finite. The first width is 1 (k = 0, clamped): until the first
// resize at most 2·minBuckets entries are queued, which a direct search
// over minBuckets heads handles whatever the width, and that resize sets
// the width from the entries themselves.
func (q *departureQueue) init(horizon float64, needMeta bool) {
	_, e := math.Frexp(horizon) // horizon < 2^e
	*q = departureQueue{
		// The first resize comes past 2·minBuckets entries; room for them
		// spares the smallest append growths.
		nodes:   make([]depNode, 0, 2*minBuckets),
		horizon: horizon, needMeta: needMeta, freeNode: -1, kmax: min(53-e, 1023),
	}
	q.setWidth(0)
	q.setBuckets(minBuckets)
	q.setCur(0)
}

// setWidth sets w = 2^-k with k clamped to [−1022, kmax], which keeps both
// 2^k and 2^-k finite.
func (q *departureQueue) setWidth(k int) {
	k = max(min(k, q.kmax), -1022)
	q.scale, q.width = math.Ldexp(1, k), math.Ldexp(1, -k)
}

// setBuckets sizes the (empty) bucket array to nb and sets the resize
// thresholds.
func (q *departureQueue) setBuckets(nb int) {
	if cap(q.head) >= nb {
		q.head = q.head[:nb]
	} else {
		// Room for the next doubling: every other growth reuses the array.
		q.head = make([]int32, nb, 2*nb)
	}
	for b := range q.head {
		q.head[b] = -1
	}
	q.mask = int64(nb - 1)
	q.growAt, q.shrinkAt = 2*nb, nb/4
	if nb <= minBuckets {
		q.shrinkAt = -1
	}
}

// setCur moves the front search to virtual bucket v.
func (q *departureQueue) setCur(v int64) {
	q.cur, q.top = v, float64(v+1)*q.width
}

// bucket is the virtual bucket of an epoch inside the horizon.
func (q *departureQueue) bucket(at float64) int64 { return int64(at * q.scale) }

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
	q.insert(depEntry{at: at, ref: -1, n: s})
}

// pushRow schedules a teardown of the route-table row base[off:off+n] —
// the compiled engine's admission result. On a plan-less run the row
// reference is stored in the entry itself and the pool is never touched;
// with failure events pending the path is pooled like any other, so
// extraction sees meta and survives table recompiles.
//
//altlint:hotpath
func (q *departureQueue) pushRow(at float64, off, n int32, m depMeta) {
	if q.needMeta {
		q.push(at, paths.Path{Links: q.base[off : off+n]}, m)
		return
	}
	q.insert(depEntry{at: at, ref: off, n: n})
}

// insert queues one entry: past the horizon onto the side list, else into
// a free node linked into its bucket.
//
//altlint:hotpath
func (q *departureQueue) insert(e depEntry) {
	if e.at > q.horizon {
		if q.needMeta {
			q.side = append(q.side, e)
		}
		return
	}
	i := q.freeNode
	if i >= 0 {
		q.freeNode = q.nodes[i].next
		q.nodes[i].depEntry = e
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, depNode{depEntry: e})
	}
	v := q.bucket(e.at)
	if v < q.cur {
		q.setCur(v)
	}
	q.link(i, v)
	if q.n++; q.n > q.growAt {
		q.fit()
	}
}

// link inserts node i into the list of virtual bucket v after every entry
// with an equal or earlier epoch — the push-order tie rule.
//
//altlint:hotpath
func (q *departureQueue) link(i int32, v int64) {
	at := q.nodes[i].at
	p := &q.head[v&q.mask]
	for j := *p; j >= 0 && q.nodes[j].at <= at; j = *p {
		p = &q.nodes[j].next
	}
	q.nodes[i].next = *p
	*p = i
}

// front returns the node of the earliest calendar entry, with cur moved
// to its bucket, or −1 when the calendar is empty.
//
//altlint:hotpath
func (q *departureQueue) front() int32 {
	if q.n == 0 {
		return -1
	}
	for range q.head {
		if i := q.head[q.cur&q.mask]; i >= 0 && q.nodes[i].at < q.top {
			return i
		}
		q.setCur(q.cur + 1)
	}
	// A whole cycle of buckets held nothing this close: the earliest list
	// head is the front. Equal epochs share a list, so the strict
	// comparison needs no tie rule.
	best := int32(-1)
	for _, i := range q.head {
		if i >= 0 && (best < 0 || q.nodes[i].at < q.nodes[best].at) {
			best = i
		}
	}
	q.setCur(q.bucket(q.nodes[best].at))
	return best
}

// next returns the earliest epoch in the calendar, +Inf when it is empty
// (entries past the horizon never count: they never pop).
func (q *departureQueue) next() float64 {
	if i := q.front(); i >= 0 {
		return q.nodes[i].at
	}
	return math.Inf(1)
}

// popTo removes and returns the earliest entry if its epoch is at or
// before epoch. The caller decodes its path, and frees a pooled slot, with
// release.
//
//altlint:hotpath
func (q *departureQueue) popTo(epoch float64) (depEntry, bool) {
	// Fast path: the head of cur's bucket is the front if it falls inside
	// cur's virtual bucket.
	i := q.head[q.cur&q.mask]
	if i < 0 || !(q.nodes[i].at < q.top) {
		if i = q.front(); i < 0 {
			return depEntry{}, false
		}
	}
	nd := &q.nodes[i]
	if !(nd.at <= epoch) {
		return depEntry{}, false
	}
	e := nd.depEntry
	q.head[q.cur&q.mask] = nd.next
	nd.next = q.freeNode
	q.freeNode = i
	if q.n--; q.n < q.shrinkAt {
		q.fit()
	}
	return e, true
}

// release decodes a popped entry's path and returns its pool slot, if
// any, to the free list. The pooled path is only valid until the slot is
// reused by the next push.
func (q *departureQueue) release(e depEntry) paths.Path {
	if e.ref >= 0 {
		return paths.Path{Links: q.base[e.ref : e.ref+e.n]}
	}
	q.free = append(q.free, e.n)
	return q.pool[e.n]
}

// fit resizes the calendar to the bucket count its population calls for
// and rebuilds it. The width becomes the power of two nearest
// 3·mean(t − min t)/n: about three entries per bucket near the front,
// where a queue of n entries spread over a mean distance d from its front
// has one entry per d/n. Three, Brown's factor, keeps a front bucket
// rarely empty while its list stays a few entries long.
func (q *departureQueue) fit() {
	nb := len(q.head)
	for q.n > 2*nb {
		nb *= 2
	}
	for nb > minBuckets && q.n < nb/4 {
		nb /= 2
	}
	// Chain every entry into one list, bucket by bucket. Equal epochs share
	// a bucket, so the chain keeps them in push order, and relinking in
	// chain order keeps it too.
	chain := int32(-1)
	tail := &chain
	lo := math.Inf(1)
	for b, i := range q.head {
		if i < 0 {
			continue
		}
		*tail = i
		for j := i; j >= 0; j = q.nodes[j].next {
			lo = min(lo, q.nodes[j].at)
			tail = &q.nodes[j].next
		}
		q.head[b] = -1
	}
	if q.n > 0 {
		sum := 0.0
		for j := chain; j >= 0; j = q.nodes[j].next {
			sum += q.nodes[j].at - lo
		}
		// Frexp: x = f·2^e with f in [0.5, 1); the nearest power of two
		// (geometrically) is 2^(e−1) below f = 1/√2, else 2^e.
		if x := 3 * sum / float64(q.n) / float64(q.n); x > 0 && !math.IsInf(x, 0) {
			f, e := math.Frexp(x)
			if f < math.Sqrt2/2 {
				e--
			}
			q.setWidth(-e)
		}
	}
	q.setBuckets(nb)
	for j := chain; j >= 0; {
		next := q.nodes[j].next
		q.link(j, q.bucket(q.nodes[j].at))
		j = next
	}
	if q.n > 0 {
		q.setCur(q.bucket(lo))
	}
}

// torndown is one in-flight call removed from the queue by a link failure.
type torndown struct {
	at   float64 // the cancelled departure epoch (arrival + holding)
	path paths.Path
	meta depMeta
}

// extract removes every scheduled departure whose path satisfies hit,
// side list included, unlinking it in place: the survivors keep their
// order, so the push-order tie rule holds across extraction. The extracted
// paths are copies of the pool entries, so they stay valid across later
// pushes. Extraction follows bucket order — callers sort the result (by
// call id) before acting on it, so the simulation never depends on queue
// layout.
func (q *departureQueue) extract(hit func(paths.Path) bool) []torndown {
	var out []torndown
	// Extraction only happens on runs with failure events, where needMeta
	// forces every entry through the pool (see pushRow).
	take := func(e depEntry) bool {
		if !hit(q.pool[e.n]) {
			return false
		}
		out = append(out, torndown{at: e.at, path: q.pool[e.n], meta: q.meta[e.n]})
		q.free = append(q.free, e.n)
		return true
	}
	for b := range q.head {
		p := &q.head[b]
		for i := *p; i >= 0; i = *p {
			nd := &q.nodes[i]
			if !take(nd.depEntry) {
				p = &nd.next
				continue
			}
			*p = nd.next
			nd.next = q.freeNode
			q.freeNode = i
			q.n--
		}
	}
	kept := q.side[:0]
	for _, e := range q.side {
		if !take(e) {
			kept = append(kept, e)
		}
	}
	q.side = kept
	if q.n < q.shrinkAt {
		q.fit()
	}
	return out
}
