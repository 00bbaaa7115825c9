// Package calendar is the one event queue every call engine runs on: a
// calendar queue (Brown, "Calendar queues", CACM 1988) of small
// index-based entries whose equal epochs pop in push order. The queue
// never reads an entry's payload; each engine decides what its two int32
// words name — a route-table row, a pooled path, a call slot.
package calendar

import "math"

// Entry is one scheduled event: its epoch and two payload words the queue
// carries but never reads. The queue moves these 16-byte values — no
// interface boxing, no pointer writes, no write barriers.
type Entry struct {
	At  float64 // event epoch
	Ref int32
	N   int32
}

// node is one calendar slot: an entry and the index of the next node of
// its bucket list (or of the free list), −1 ending either list.
type node struct {
	Entry
	next int32
}

// minBuckets is the calendar's floor. Below it a direct search reads at
// most 16 bucket heads, as cheap as the few comparisons a tiny queue
// needs anyway, so halving further saves nothing.
const minBuckets = 16

// Queue is a calendar queue: nb buckets, nb a power of two, each covering
// an epoch interval of width w = 2^-k. An entry at epoch t lives in
// virtual bucket v = ⌊t·2^k⌋, stored in bucket v mod nb on a list kept
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
// epoch already in its bucket, and rebuilds and removals relink entries
// in list order, which equal epochs share (they share a bucket).
//
// An entry past the horizon can never pop — a run drains only up to its
// horizon — so Insert refuses it and the caller decides whether to keep
// it elsewhere.
//
// Nodes live in one slice under an intrusive free list, so steady-state
// queue traffic allocates nothing.
type Queue struct {
	nodes    []node
	head     []int32 // first node of each bucket's list, −1 when empty
	freeNode int32   // first node of the free list, −1 when empty
	mask     int64   // nb − 1
	n        int     // entries in the calendar
	growAt   int     // resize when n exceeds this
	shrinkAt int     // resize when n falls below this

	// cur is the virtual bucket the front is searched from; no calendar
	// entry lies before it. top = (cur+1)·w is that bucket's end.
	cur          int64
	top          float64
	scale, width float64 // 2^k and w = 2^-k
	kmax         int     // largest k the horizon allows (see Init)

	horizon float64
}

// Init empties the queue for a run whose events pop up to horizon
// (finite and non-negative). kmax keeps horizon·2^k below 2^53, so every
// virtual bucket index, and the bucket end (cur+1)·w, is an exact integer
// multiple of w in float64 and far inside int64; it also keeps 2^k and
// 2^-k finite. The first width is 1 (k = 0, clamped): until the first
// resize at most 2·minBuckets entries are queued, which a direct search
// over minBuckets heads handles whatever the width, and that resize sets
// the width from the entries themselves.
func (q *Queue) Init(horizon float64) {
	_, e := math.Frexp(horizon) // horizon < 2^e
	*q = Queue{
		// The first resize comes past 2·minBuckets entries; room for them
		// spares the smallest append growths.
		nodes:   make([]node, 0, 2*minBuckets),
		horizon: horizon, freeNode: -1, kmax: min(53-e, 1023),
	}
	q.setWidth(0)
	q.setBuckets(minBuckets)
	q.setCur(0)
}

// setWidth sets w = 2^-k with k clamped to [−1022, kmax], which keeps both
// 2^k and 2^-k finite.
func (q *Queue) setWidth(k int) {
	k = max(min(k, q.kmax), -1022)
	q.scale, q.width = math.Ldexp(1, k), math.Ldexp(1, -k)
}

// setBuckets sizes the (empty) bucket array to nb and sets the resize
// thresholds.
func (q *Queue) setBuckets(nb int) {
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
func (q *Queue) setCur(v int64) {
	q.cur, q.top = v, float64(v+1)*q.width
}

// bucket is the virtual bucket of an epoch inside the horizon.
func (q *Queue) bucket(at float64) int64 { return int64(at * q.scale) }

// Insert queues one entry into a free node linked into its bucket. An
// entry past the horizon is refused: Insert reports false and queues
// nothing. The caller guarantees e.At is not NaN.
//
//altlint:hotpath
func (q *Queue) Insert(e Entry) bool {
	if e.At > q.horizon {
		return false
	}
	i := q.freeNode
	if i >= 0 {
		q.freeNode = q.nodes[i].next
		q.nodes[i].Entry = e
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{Entry: e})
	}
	v := q.bucket(e.At)
	if v < q.cur {
		q.setCur(v)
	}
	q.link(i, v)
	if q.n++; q.n > q.growAt {
		q.fit()
	}
	return true
}

// link inserts node i into the list of virtual bucket v after every entry
// with an equal or earlier epoch — the push-order tie rule.
//
//altlint:hotpath
func (q *Queue) link(i int32, v int64) {
	at := q.nodes[i].At
	p := &q.head[v&q.mask]
	for j := *p; j >= 0 && q.nodes[j].At <= at; j = *p {
		p = &q.nodes[j].next
	}
	q.nodes[i].next = *p
	*p = i
}

// front returns the node of the earliest entry, with cur moved to its
// bucket, or −1 when the queue is empty.
//
//altlint:hotpath
func (q *Queue) front() int32 {
	if q.n == 0 {
		return -1
	}
	for range q.head {
		if i := q.head[q.cur&q.mask]; i >= 0 && q.nodes[i].At < q.top {
			return i
		}
		q.setCur(q.cur + 1)
	}
	// A whole cycle of buckets held nothing this close: the earliest list
	// head is the front. Equal epochs share a list, so the strict
	// comparison needs no tie rule.
	best := int32(-1)
	for _, i := range q.head {
		if i >= 0 && (best < 0 || q.nodes[i].At < q.nodes[best].At) {
			best = i
		}
	}
	q.setCur(q.bucket(q.nodes[best].At))
	return best
}

// Next returns the earliest queued epoch, +Inf when the queue is empty.
func (q *Queue) Next() float64 {
	if i := q.front(); i >= 0 {
		return q.nodes[i].At
	}
	return math.Inf(1)
}

// PopTo removes and returns the earliest entry if its epoch is at or
// before epoch.
//
//altlint:hotpath
func (q *Queue) PopTo(epoch float64) (Entry, bool) {
	// Fast path: the head of cur's bucket is the front if it falls inside
	// cur's virtual bucket.
	i := q.head[q.cur&q.mask]
	if i < 0 || !(q.nodes[i].At < q.top) {
		if i = q.front(); i < 0 {
			return Entry{}, false
		}
	}
	nd := &q.nodes[i]
	if !(nd.At <= epoch) {
		return Entry{}, false
	}
	e := nd.Entry
	q.head[q.cur&q.mask] = nd.next
	nd.next = q.freeNode
	q.freeNode = i
	if q.n--; q.n < q.shrinkAt {
		q.fit()
	}
	return e, true
}

// RemoveIf removes every entry for which hit reports true, unlinking it
// in place: the survivors keep their order, so the push-order tie rule
// holds across removal. hit sees the entries in bucket order, not epoch
// order.
func (q *Queue) RemoveIf(hit func(Entry) bool) {
	for b := range q.head {
		p := &q.head[b]
		for i := *p; i >= 0; i = *p {
			nd := &q.nodes[i]
			if !hit(nd.Entry) {
				p = &nd.next
				continue
			}
			*p = nd.next
			nd.next = q.freeNode
			q.freeNode = i
			q.n--
		}
	}
	if q.n < q.shrinkAt {
		q.fit()
	}
}

// fit resizes the calendar to the bucket count its population calls for
// and rebuilds it. The width becomes the power of two nearest
// 3·mean(t − min t)/n: about three entries per bucket near the front,
// where a queue of n entries spread over a mean distance d from its front
// has one entry per d/n. Three, Brown's factor, keeps a front bucket
// rarely empty while its list stays a few entries long.
func (q *Queue) fit() {
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
			lo = min(lo, q.nodes[j].At)
			tail = &q.nodes[j].next
		}
		q.head[b] = -1
	}
	if q.n > 0 {
		sum := 0.0
		for j := chain; j >= 0; j = q.nodes[j].next {
			sum += q.nodes[j].At - lo
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
		q.link(j, q.bucket(q.nodes[j].At))
		j = next
	}
	if q.n > 0 {
		q.setCur(q.bucket(lo))
	}
}
