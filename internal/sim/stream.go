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

// pairStream is one O-D pair's pending Poisson arrival.
type pairStream struct {
	// next is the pair's next arrival epoch (always < horizon while the
	// pair is on the merge heap).
	next         float64
	rate         float64
	origin, dest graph.NodeID
	// ar draws inter-arrival times, and holding times too unless the
	// stream is dual (see Stream.holds).
	ar xrand.Gen
}

// Stream merges every O-D pair's Poisson process lazily: it keeps one
// pending arrival per pair on an indexed min-heap and draws further
// variates only as calls are consumed. Memory is O(pairs) instead of the
// O(calls) of a materialized Trace, while the emitted call sequence —
// epochs, holding times, IDs, and tie order — is byte-for-byte the sequence
// GenerateTrace (or GenerateTraceHolding) would produce for the same
// arguments, because each pair consumes its substream in the same order and
// the heap breaks equal-epoch ties by the same (origin, dest) order the
// trace sort uses.
type Stream struct {
	pairs   []pairStream
	heap    []int32 // indices into pairs, min-ordered by (next, origin, dest)
	horizon float64
	seed    int64
	emitted int // next call ID
	// holds, on a dual stream, draws pairs[k]'s holding times from dist on
	// an independent substream: the selectable-distribution layout of
	// GenerateTraceHolding. It is nil otherwise, and holdings come from
	// ar, exactly reproducing GenerateTrace's single-stream draw order.
	holds []xrand.Gen
	dist  HoldingDist
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

func newStream(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist, dual bool) (*Stream, error) {
	// A NaN or infinite horizon would never exhaust the stream.
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon %v must be positive and finite", horizon)
	}
	// The pairs and heap slices are allocated once, at the count of pairs
	// with positive demand; each pair holds its generators by value.
	n := m.Size()
	live := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && m.Demand(graph.NodeID(i), graph.NodeID(j)) > 0 {
				live++
			}
		}
	}
	s := &Stream{
		pairs:   make([]pairStream, 0, live),
		heap:    make([]int32, 0, live),
		horizon: horizon,
		seed:    seed,
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
			ps := pairStream{
				rate:   rate,
				origin: graph.NodeID(i),
				dest:   graph.NodeID(j),
			}
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
			s.heapPush(int32(len(s.pairs) - 1))
		}
	}
	return s, nil
}

// Next implements ArrivalSource.
func (s *Stream) Next() (Call, bool) {
	if len(s.heap) == 0 {
		return Call{}, false
	}
	k := s.heap[0]
	p := &s.pairs[k]
	c := Call{
		ID:      s.emitted,
		Origin:  p.origin,
		Dest:    p.dest,
		Arrival: p.next,
	}
	s.emitted++
	// Draw order per pair matches the materializing generators: the holding
	// time of the emitted call, then the increment to the pair's next
	// arrival.
	if s.holds != nil {
		c.Holding = s.dist.draw(&s.holds[k])
	} else {
		c.Holding = p.ar.Exp(1)
	}
	p.next += p.ar.Exp(1 / p.rate)
	if p.next >= s.horizon {
		// Pair exhausted: remove it from the merge heap.
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.heapDown(0)
		}
	} else {
		s.heapDown(0)
	}
	return c, true
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
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		calls = append(calls, c)
	}
	return &Trace{Calls: calls, Horizon: s.horizon, Seed: s.seed}
}

// expectedCalls bounds the number of calls the stream has left to emit:
// each pending pair emits its pending arrival plus a Poisson number with
// mean rate·(horizon − next). The total has that mean and at most that
// variance; the estimate adds 4·√mean + 16 of headroom.
func (s *Stream) expectedCalls() int {
	mean := 0.0
	for _, idx := range s.heap {
		p := &s.pairs[idx]
		mean += 1 + p.rate*(s.horizon-p.next)
	}
	return int(mean + 4*math.Sqrt(mean) + 16)
}

// streamLess orders pending arrivals by (epoch, origin, dest) — the same
// total order the materializing generators sort by, so equal-epoch ties
// across pairs resolve identically.
func (s *Stream) streamLess(a, b int32) bool {
	pa, pb := &s.pairs[a], &s.pairs[b]
	if pa.next != pb.next {
		return pa.next < pb.next
	}
	if pa.origin != pb.origin {
		return pa.origin < pb.origin
	}
	return pa.dest < pb.dest
}

func (s *Stream) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.streamLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Stream) heapDown(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && s.streamLess(s.heap[right], s.heap[left]) {
			small = right
		}
		if !s.streamLess(s.heap[small], s.heap[i]) {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
}
