package sim

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// ArrivalSource yields a run's calls one at a time in arrival order. It is
// the streaming counterpart of a materialized Trace: Run consumes either
// interchangeably, and the two produce bit-identical results for the same
// (matrix, horizon, seed) because a Trace is just a drained source.
type ArrivalSource interface {
	// Next returns the next call in arrival order, or ok=false when the
	// source is exhausted.
	Next() (c Call, ok bool)
	// Horizon is the generation horizon: arrivals cover [0, Horizon).
	Horizon() float64
	// Seed is the master seed the arrivals derive from (for run markers).
	Seed() int64
}

// pairStream is one O-D pair's Poisson arrival process.
type pairStream struct {
	// next is the pair's first arrival not yet drawn into a slab (always
	// < horizon while the pair is pending).
	next float64
	rate float64
	// od is origin·n + dest for the matrix's n nodes: one word that orders
	// pairs as (origin, dest) does and keeps the pair at 64 bytes.
	od uint32
	// link is the next pending pair on the same slab list, −1 ending it.
	link int32
	// ar draws inter-arrival times, and holding times too unless the
	// stream is dual (see Stream.holds).
	ar xrand.Gen
}

// before is the one arrival order: epoch, then pair (origin, then dest).
// Epochs are never negative, so their bit patterns order as the values do.
func before(a, b *Call) bool {
	ta, tb := math.Float64bits(a.Arrival), math.Float64bits(b.Arrival)
	return ta < tb || ta == tb && (a.Origin < b.Origin || a.Origin == b.Origin && a.Dest < b.Dest)
}

// fineBits is log2 of the arrivals a slab expects — its width is the
// power of two nearest 2^fineBits/Λ = 2048/Λ for total rate Λ, so its
// buffers stay in cache — and of the fine buckets it is counting-sorted
// on, about one per call.
const fineBits = 11

// Stream merges every O-D pair's Poisson process lazily, one time slab at
// a time. Time is cut into slabs of width Δ = 2^-k. Each pending pair sits
// on the list of the slab holding its next arrival, in a ring of list
// heads (a pair whose slab lies a lap or more ahead stays linked and is
// skipped until its lap comes round). Filling slab s draws, for each due
// pair, every arrival in [s·Δ, min((s+1)·Δ, horizon)) in the pair's own
// draw order — the holding time, then the next increment — and relinks or
// retires the pair. The slab is then ordered by a stable counting sort on
// the fine index ⌊t·2^(k+fineBits)⌋ and an insertion pass on (epoch,
// pair), straight into a []Call, and the calls are numbered. Next hands
// the slab out one call at a time; Run reads each whole slab in place.
//
// Each pair consumes its substream in the same order whatever the
// batching, and (epoch, origin, dest) is a total order over distinct
// arrivals, with a pair's equal epochs (an increment can round to +0) kept
// in draw order by the sorts' stability. So the emitted call sequence —
// epochs, holding times, IDs and tie order — is byte-for-byte the
// sequence GenerateTrace (or GenerateTraceHolding) produces for the same
// arguments. Memory is O(pairs + slab) instead of the O(calls) of a
// materialized Trace.
type Stream struct {
	pairs   []pairStream
	n       uint32 // node count of the matrix (decodes pairStream.od)
	horizon float64
	seed    int64
	rate    float64 // Λ, the total rate of the pairs with positive demand
	live    int     // pending pairs
	emitted int     // calls numbered so far: the next slab's first ID
	// holds, on a dual stream, draws pairs[k]'s holding times from dist on
	// an independent substream: the selectable-distribution layout of
	// GenerateTraceHolding. It is nil otherwise, and holdings come from
	// ar, exactly reproducing GenerateTrace's single-stream draw order.
	holds []xrand.Gen
	dist  HoldingDist

	// Slab geometry: scale = 2^k slabs per unit time, width = Δ = 2^-k,
	// fine = 2^(k+fineBits) fine buckets per unit time.
	scale, width, fine float64
	heads              []int32 // ring of slab lists, −1 when empty
	mask               int64   // len(heads) − 1
	cur                int64   // next slab to fill; no pending arrival lies before it
	counts             []int32 // per fine bucket of the slab being sorted
	in, out            []Call
	pos                int // next call of out to hand out
}

// NewStream returns the streaming equivalent of GenerateTrace(m, horizon,
// seed): identical call sequence, O(pairs) memory.
func NewStream(m *traffic.Matrix, horizon float64, seed int64) (*Stream, error) {
	return newStream(m, horizon, seed, HoldingExponential, false)
}

// NewStreamHolding returns the streaming equivalent of
// GenerateTraceHolding(m, horizon, seed, dist).
func NewStreamHolding(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist) (*Stream, error) {
	return newStream(m, horizon, seed, dist, true)
}

// checkHorizon is the generators' one horizon rule: positive and finite.
// A NaN or infinite horizon would never exhaust a pair.
func checkHorizon(horizon float64) error {
	if !(horizon > 0 && horizon <= math.MaxFloat64) {
		return fmt.Errorf("sim: horizon %v must be positive and finite", horizon)
	}
	return nil
}

func newStream(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist, dual bool) (*Stream, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	// The pairs slice is allocated once, at the count of pairs with
	// positive demand; each pair holds its generators by value. Every
	// demand is finite (traffic.Matrix refuses any other), but their sum
	// can overflow, and the slab width derives from it.
	n := m.Size()
	if n > 1<<16 {
		return nil, fmt.Errorf("sim: %d nodes: a stream encodes each pair in 32 bits, so at most %d", n, 1<<16)
	}
	live, total := 0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if d := m.Demand(graph.NodeID(i), graph.NodeID(j)); d > 0 {
				live++
				total += d
			}
		}
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("sim: total demand %v is not finite", total)
	}
	s := &Stream{
		pairs:   make([]pairStream, 0, live),
		n:       uint32(n),
		horizon: horizon,
		seed:    seed,
		rate:    total,
		dist:    dist,
	}
	if dual {
		s.holds = make([]xrand.Gen, 0, live)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			ps := pairStream{rate: rate, od: uint32(i*n + j)}
			if dual {
				ps.ar = xrand.NewGen(seed, int64(i), int64(j), 1)
			} else {
				ps.ar = xrand.NewGen(seed, int64(i), int64(j))
			}
			// The first inter-arrival draw happens eagerly, exactly as the
			// materializing generator's loop does before its horizon check.
			ps.next = ps.ar.Exp(1 / rate)
			if ps.next >= horizon {
				continue
			}
			if dual {
				s.holds = append(s.holds, xrand.NewGen(seed, int64(i), int64(j), 2))
			}
			s.pairs = append(s.pairs, ps)
		}
	}
	// Δ is the power of two nearest 2^fineBits/Λ. With Λ = f·2^e, f in
	// [½, 1), 2^fineBits/Λ = (1/f)·2^(fineBits−e) with 1/f in (1, 2], and
	// the lower power is nearer when 1/f < 3/2.
	f, e := math.Frexp(total)
	k := e - fineBits
	if f <= 2.0/3 {
		k--
	}
	s.setSlabs(k)
	return s, nil
}

// setSlabs sets the slab width to 2^-k, clamped to the range below, sizes
// the slab buffers, and links every pair onto its slab list. It runs
// before the first fill, while every pair is pending.
//
// With horizon < 2^eh: k ≤ 53 − eh − fineBits keeps every fine index
// t·2^(k+fineBits) below 2^53, so it, the slab index and each slab end
// (s+1)·Δ are exact in float64 (the rule of departureQueue.init); k ≥ −eh
// stops the width at one slab for the whole horizon; and the bounds at
// ±1022 keep 2^k, 2^-k and 2^(k+fineBits) finite and normal.
func (s *Stream) setSlabs(k int) {
	_, eh := math.Frexp(s.horizon)
	k = min(max(k, -eh, -1022), 53-eh-fineBits, 1022-fineBits)
	s.scale, s.width, s.fine = math.Ldexp(1, k), math.Ldexp(1, -k), math.Ldexp(1, k+fineBits)

	// The ring has a head per pair, or per slab of the horizon when there
	// are fewer slabs, rounded up to a power of two. The heads and the fine
	// counts share one allocation, as do the two call buffers, which hold
	// the expected slab count plus four standard deviations; a fuller slab
	// falls back to append. The count is capped for a width clamped far
	// above 2^fineBits/Λ, which only a stream of more than 2^57 expected
	// calls reaches.
	nb := 1
	for nb < len(s.pairs) && float64(nb) < s.horizon*s.scale {
		nb *= 2
	}
	ints := make([]int32, nb+1<<fineBits)
	s.heads, s.counts = ints[:nb:nb], ints[nb:]
	s.mask = int64(nb - 1)
	for b := range s.heads {
		s.heads[b] = -1
	}
	mean := min(s.rate*min(s.width, s.horizon), 1<<16)
	c := int(mean + 4*math.Sqrt(mean) + 16)
	calls := make([]Call, 2*c)
	s.in, s.out, s.pos = calls[:0:c], calls[c:c:2*c], 0

	s.live, s.cur = len(s.pairs), 0
	for i := range s.pairs {
		s.link(int32(i))
	}
}

// slab is the index of the slab holding epoch t (t < horizon).
func (s *Stream) slab(t float64) int64 { return int64(t * s.scale) }

// link pushes pairs[i] onto the list of the slab holding its next arrival.
func (s *Stream) link(i int32) {
	h := &s.heads[s.slab(s.pairs[i].next)&s.mask]
	s.pairs[i].link = *h
	*h = i
}

// Next implements ArrivalSource.
//
//altlint:hotpath
func (s *Stream) Next() (Call, bool) {
	if s.pos == len(s.out) && !s.fill() {
		return Call{}, false
	}
	s.pos++
	return s.out[s.pos-1], true
}

// batch returns the calls of the current slab not yet handed out — the
// next whole slab once it is used up, empty once the stream is exhausted
// — and marks them handed out. The slice is valid until the next call of
// batch, Next or Materialize, which refill its backing array.
//
//altlint:hotpath
func (s *Stream) batch() []Call {
	if s.pos == len(s.out) && !s.fill() {
		return nil
	}
	b := s.out[s.pos:]
	s.pos = len(s.out)
	return b
}

// fill draws and orders the next slab holding any arrival into out; it
// reports false once every pair has retired. Empty slabs are stepped over
// one at a time: at the natural width a slab expects 2^fineBits calls, so
// they are rare.
//
//altlint:hotpath
func (s *Stream) fill() bool {
	for s.live > 0 {
		slab := s.cur
		s.cur++
		end := min(float64(slab+1)*s.width, s.horizon)
		in := s.in[:0]
		h := &s.heads[slab&s.mask]
		i := *h
		*h = -1
		for i >= 0 {
			p := &s.pairs[i]
			next := p.link
			if s.slab(p.next) == slab {
				// Draw order per pair matches the materializing generators:
				// the holding time of each call, then the increment to the
				// pair's next arrival.
				origin, dest := graph.NodeID(p.od/s.n), graph.NodeID(p.od%s.n)
				mean := 1 / p.rate
				for p.next < end {
					var hold float64
					if s.holds != nil {
						hold = s.dist.draw(&s.holds[i])
					} else {
						hold = p.ar.Exp(1)
					}
					in = append(in, Call{Origin: origin, Dest: dest, Arrival: p.next, Holding: hold})
					p.next += p.ar.Exp(mean)
				}
			}
			if p.next < s.horizon {
				s.link(i)
			} else {
				s.live--
			}
			i = next
		}
		s.in = in
		if len(in) > 0 {
			s.order(slab)
			return true
		}
	}
	return false
}

// order sorts slab's arrivals from in into out by (epoch, pair), keeping
// a pair's equal epochs in draw order: a stable counting sort on the fine
// index, then an insertion pass that only reorders calls sharing a fine
// bucket. The ordered calls are then numbered, continuing from the last
// slab's IDs.
//
//altlint:hotpath
func (s *Stream) order(slab int64) {
	in, counts := s.in, s.counts
	base := slab << fineBits // fine index of the slab's start
	for b := range in {
		counts[int64(in[b].Arrival*s.fine)-base]++
	}
	sum := int32(0)
	for f, n := range counts {
		counts[f] = sum
		sum += n
	}
	if cap(s.out) < len(in) {
		s.out = append(s.out[:0], in...) // a slab fuller than the headroom
	}
	out := s.out[:len(in)]
	for b := range in {
		f := int64(in[b].Arrival*s.fine) - base
		out[counts[f]] = in[b]
		counts[f]++
	}
	clear(counts)
	for b := 1; b < len(out); b++ {
		if !before(&out[b], &out[b-1]) {
			continue
		}
		c := out[b]
		a := b
		for ; a > 0 && before(&c, &out[a-1]); a-- {
			out[a] = out[a-1]
		}
		out[a] = c
	}
	for b := range out {
		out[b].ID = s.emitted + b
	}
	s.emitted += len(out)
	s.out, s.pos = out, 0
}

// Horizon implements ArrivalSource.
func (s *Stream) Horizon() float64 { return s.horizon }

// Seed implements ArrivalSource.
func (s *Stream) Seed() int64 { return s.seed }

// Materialize drains the stream into a Trace. Draining a fresh stream
// reproduces the corresponding GenerateTrace/GenerateTraceHolding output
// exactly; the generators are implemented this way.
//
// The call slice is allocated once, sized from the stream's expected
// remaining count plus four standard deviations; a longer draw falls back
// to append. Growing it by doubling instead leaves the heap's size at the
// final copy to the collector's timing, which showed up as peak RSS.
func (s *Stream) Materialize() *Trace {
	calls := make([]Call, 0, s.expectedCalls())
	for b := s.batch(); len(b) > 0; b = s.batch() {
		calls = append(calls, b...)
	}
	return &Trace{Calls: calls, Horizon: s.horizon, Seed: s.seed}
}

// expectedCalls bounds the number of calls the stream has left to emit:
// the calls already ordered into out, plus, for each pending pair, its
// next arrival and a Poisson number with mean rate·(horizon − next). The
// pending total has that mean and at most that variance; the estimate
// adds 4·√mean + 16 of headroom.
func (s *Stream) expectedCalls() int {
	mean := 0.0
	for i := range s.pairs {
		if p := &s.pairs[i]; p.next < s.horizon {
			mean += 1 + p.rate*(s.horizon-p.next)
		}
	}
	return len(s.out) - s.pos + int(mean+4*math.Sqrt(mean)+16)
}
