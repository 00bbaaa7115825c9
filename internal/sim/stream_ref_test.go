package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// refStream is the arrival merge Stream replaced, kept as its reference:
// one pending arrival per pair on a binary min-heap ordered by (epoch,
// origin, dest), each pair drawing one call at a time.
type refStream struct {
	pairs   []refPair
	heap    []int32
	horizon float64
	emitted int
	holds   []xrand.Gen
	dist    HoldingDist
}

type refPair struct {
	next         float64
	rate         float64
	origin, dest graph.NodeID
	ar           xrand.Gen
}

func newRefStream(m *traffic.Matrix, horizon float64, seed int64, dist HoldingDist, dual bool) *refStream {
	s := &refStream{horizon: horizon, dist: dist}
	n := m.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := m.Demand(graph.NodeID(i), graph.NodeID(j))
			if rate <= 0 {
				continue
			}
			p := refPair{rate: rate, origin: graph.NodeID(i), dest: graph.NodeID(j)}
			if dual {
				p.ar = xrand.NewGen(seed, int64(i), int64(j), 1)
			} else {
				p.ar = xrand.NewGen(seed, int64(i), int64(j))
			}
			p.next = p.ar.Exp(1 / rate)
			if p.next >= horizon {
				continue
			}
			if dual {
				s.holds = append(s.holds, xrand.NewGen(seed, int64(i), int64(j), 2))
			}
			s.pairs = append(s.pairs, p)
			s.push(int32(len(s.pairs) - 1))
		}
	}
	return s
}

func (s *refStream) Next() (Call, bool) {
	if len(s.heap) == 0 {
		return Call{}, false
	}
	k := s.heap[0]
	p := &s.pairs[k]
	c := Call{ID: s.emitted, Origin: p.origin, Dest: p.dest, Arrival: p.next}
	s.emitted++
	if s.holds != nil {
		c.Holding = s.dist.draw(&s.holds[k])
	} else {
		c.Holding = p.ar.Exp(1)
	}
	p.next += p.ar.Exp(1 / p.rate)
	if p.next >= s.horizon {
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 0 {
			s.down(0)
		}
	} else {
		s.down(0)
	}
	return c, true
}

func (s *refStream) less(a, b int32) bool {
	pa, pb := &s.pairs[a], &s.pairs[b]
	if pa.next != pb.next {
		return pa.next < pb.next
	}
	if pa.origin != pb.origin {
		return pa.origin < pb.origin
	}
	return pa.dest < pb.dest
}

func (s *refStream) push(idx int32) {
	s.heap = append(s.heap, idx)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *refStream) down(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && s.less(s.heap[right], s.heap[left]) {
			small = right
		}
		if !s.less(s.heap[small], s.heap[i]) {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
}

// sameCall compares two calls bit for bit.
func sameCall(a, b Call) bool {
	return a.ID == b.ID && a.Origin == b.Origin && a.Dest == b.Dest &&
		math.Float64bits(a.Arrival) == math.Float64bits(b.Arrival) &&
		math.Float64bits(a.Holding) == math.Float64bits(b.Holding)
}

// streamCase is one stream to check against the reference. shift, when
// set, overrides the slab width's exponent k (before clamping), relative
// to the stream's own k unless absolute is set. consume > 0 reads that
// many calls from both sources and then materializes the rest.
type streamCase struct {
	m        *traffic.Matrix
	horizon  float64
	seed     int64
	dual     bool
	dist     HoldingDist
	shift    int
	absolute bool
	consume  int
}

// checkStream drives a Stream and the reference through the case and
// reports the first call where they differ; it returns the call count.
func checkStream(t testing.TB, c streamCase) int {
	t.Helper()
	s, err := newStream(c.m, c.horizon, c.seed, c.dist, c.dual)
	if err != nil {
		t.Fatal(err)
	}
	if c.shift != 0 || c.absolute {
		k := c.shift
		if !c.absolute {
			k += math.Ilogb(s.scale)
		}
		s.setSlabs(k)
	}
	checkSlabGeometry(t, s)
	ref := newRefStream(c.m, c.horizon, c.seed, c.dist, c.dual)
	n := 0
	if c.consume > 0 {
		for ; n < c.consume; n++ {
			got, ok := s.Next()
			want, wok := ref.Next()
			if ok != wok || !sameCall(got, want) {
				t.Fatalf("call %d: got %+v (%v), want %+v (%v)", n, got, ok, want, wok)
			}
			if !ok {
				return n
			}
		}
		got := s.Materialize().Calls
		for i := range got {
			want, ok := ref.Next()
			if !ok || !sameCall(got[i], want) {
				t.Fatalf("materialized call %d: got %+v, want %+v (%v)", n+i, got[i], want, ok)
			}
		}
		if want, ok := ref.Next(); ok {
			t.Fatalf("materialized %d calls, reference goes on with %+v", n+len(got), want)
		}
		return n + len(got)
	}
	for ; ; n++ {
		got, ok := s.Next()
		want, wok := ref.Next()
		if ok != wok || !sameCall(got, want) {
			t.Fatalf("call %d: got %+v (%v), want %+v (%v)", n, got, ok, want, wok)
		}
		if !ok {
			return n
		}
	}
}

// checkSlabGeometry checks the clamps on the slab width: the fine index
// of every epoch below the horizon is under 2^53, so it, the slab index
// and every slab end are exact, and the width and its inverses are finite
// normal powers of two.
func checkSlabGeometry(t testing.TB, s *Stream) {
	t.Helper()
	k := math.Ilogb(s.scale)
	normal := func(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }
	if !normal(s.scale) || !normal(s.width) || !normal(s.fine) ||
		s.scale != math.Ldexp(1, k) || s.width != math.Ldexp(1, -k) || s.fine != math.Ldexp(1, k+fineBits) {
		t.Fatalf("slab geometry scale %v width %v fine %v is not 2^k, 2^-k, 2^(k+%d)", s.scale, s.width, s.fine, fineBits)
	}
	if !(s.horizon*s.fine < 0x1p53) {
		t.Fatalf("horizon %v × fine scale %v reaches 2^53: fine indices inexact", s.horizon, s.fine)
	}
}

// referenceHorizons are the horizons the reference comparisons run at.
// At 300 the largest cases draw 4.4M (metro200) and 11.6M (NSFNet×50)
// calls per stream, about 20 s on two cores; -short and -race builds,
// where that grows tenfold, stop at 5.
func referenceHorizons() []float64 {
	if testing.Short() || raceEnabled {
		return []float64{1e-3, 5}
	}
	return []float64{1e-3, 5, 300}
}

var holdingDists = []HoldingDist{HoldingExponential, HoldingDeterministic, HoldingHyperexp, HoldingErlang2}

// TestStreamMatchesHeapReference: the slab stream emits the heap merge's
// call sequence bit for bit on NSFNet, the 200-node metro, a small dense
// metro, and NSFNet at a thousandth and fifty times its nominal load, at
// three horizons, single-stream and dual with every holding distribution,
// and when a Materialize follows calls already read.
func TestStreamMatchesHeapReference(t *testing.T) {
	nominal := nsfnetMatrix(t)
	matrices := []struct {
		name string
		m    *traffic.Matrix
	}{
		{"nsfnet", nominal},
		{"metro200", metroMatrix()},
		{"metro15", traffic.MetroLocality(5, 3, 10, 0.5)},
		{"nsfnet-x0.001", nominal.Scaled(0.001)},
		{"nsfnet-x50", nominal.Scaled(50)},
	}
	for _, mc := range matrices {
		t.Run(mc.name, func(t *testing.T) {
			t.Parallel()
			for _, h := range referenceHorizons() {
				checkStream(t, streamCase{m: mc.m, horizon: h, seed: 1})
				for _, d := range holdingDists {
					checkStream(t, streamCase{m: mc.m, horizon: h, seed: 2, dual: true, dist: d})
				}
			}
			checkStream(t, streamCase{m: mc.m, horizon: 5, seed: 3, consume: 1000})
		})
	}
}

// TestStreamSlabWidths forces the slab width away from its natural value:
// coarser (fuller slabs than the buffers hold), finer (many laps of the
// ring, so pairs relink across laps, and runs of empty slabs), and the
// coarse clamp (one slab for the whole horizon). The fine clamp is checked
// on its geometry alone: at the finest exact width a horizon holds up to
// 2^42 slabs, too many to step through.
func TestStreamSlabWidths(t *testing.T) {
	nominal := nsfnetMatrix(t)
	for _, m := range []*traffic.Matrix{nominal, nominal.Scaled(0.001), traffic.MetroLocality(5, 3, 10, 0.5)} {
		for _, h := range referenceHorizons() {
			for _, c := range []streamCase{
				{shift: -6}, {shift: 6}, {shift: -2000, absolute: true},
				{shift: 6, dual: true, dist: HoldingHyperexp, consume: 100},
			} {
				c.m, c.horizon, c.seed = m, h, 4
				checkStream(t, c)
			}
			s, err := NewStream(m, h, 4)
			if err != nil {
				t.Fatal(err)
			}
			s.setSlabs(2000)
			checkSlabGeometry(t, s)
		}
	}
}

// TestNewStreamRejectsNonFiniteRates: the slab width derives from the
// total rate, and an infinite total would make a stream without end.
func TestNewStreamRejectsNonFiniteRates(t *testing.T) {
	m := traffic.Uniform(3, 1e308) // six finite pairs whose sum overflows
	if _, err := NewStream(m, 1, 1); err == nil {
		t.Error("NewStream with an infinite total rate: want error")
	}
	if _, err := NewStreamHolding(m, 1, 1, HoldingErlang2); err == nil {
		t.Error("NewStreamHolding with an infinite total rate: want error")
	}
}

// checkOrder fills one slab of s with calls at the given fine-grid
// epochs, several per pair and many equal, orders it, and checks the
// result against a stable sort by (epoch, pair): a pair's equal epochs
// must stay in the order they were drawn (Holding numbers them), and the
// ordered calls must be numbered on from the stream's last ID.
func checkOrder(t testing.TB, s *Stream, slab int64, epochs []uint16, pairs []uint8) {
	t.Helper()
	s.in = s.in[:0]
	type pair struct{ o, d graph.NodeID }
	seq := map[pair]float64{}
	// Epochs within one pair are drawn in nondecreasing order, as the
	// pair's own arrivals are.
	last := map[pair]float64{}
	for i, e := range epochs {
		k := pair{graph.NodeID(pairs[i%len(pairs)] % 8), graph.NodeID(pairs[i%len(pairs)] / 8)}
		f := float64(slab<<fineBits) + float64(e%(1<<fineBits)) + float64(e>>fineBits)/32
		at := max(f/s.fine, last[k])
		last[k] = at
		seq[k]++
		s.in = append(s.in, Call{Origin: k.o, Dest: k.d, Arrival: at, Holding: seq[k]})
	}
	want := append([]Call(nil), s.in...)
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].Arrival != want[b].Arrival {
			return want[a].Arrival < want[b].Arrival
		}
		if want[a].Origin != want[b].Origin {
			return want[a].Origin < want[b].Origin
		}
		return want[a].Dest < want[b].Dest
	})
	first := s.emitted
	s.order(slab)
	for i := range want {
		g, w := s.out[i], want[i]
		if math.Float64bits(g.Arrival) != math.Float64bits(w.Arrival) || g.Origin != w.Origin || g.Dest != w.Dest || math.Float64bits(g.Holding) != math.Float64bits(w.Holding) || g.ID != first+i {
			t.Fatalf("slab %d position %d: got %+v, want %+v with ID %d", slab, i, g, w, first+i)
		}
	}
}

// TestSlabOrderKeepsTies: distinct pairs' arrivals almost never share an
// epoch, so the tie rules are checked on crafted slabs where most do.
func TestSlabOrderKeepsTies(t *testing.T) {
	s, err := NewStream(nsfnetMatrix(t), 110, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.NewGen(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(r.Float64()*3000)
		epochs, pairs := make([]uint16, n), make([]uint8, 1+trial%16)
		for i := range epochs {
			epochs[i] = uint16(r.Float64() * 16)
			if trial%2 == 1 {
				epochs[i] = uint16(r.Float64() * 65536)
			}
		}
		for i := range pairs {
			pairs[i] = uint8(r.Float64() * 64)
		}
		checkOrder(t, s, int64(trial%40), epochs, pairs)
	}
}

// FuzzStreamMatchesReference checks the slab stream against the heap merge
// on random matrices (up to 12 nodes, random sparsity, rates spread over
// six orders of magnitude), horizons, seeds, single or dual streams, slab
// widths up to 2^8 times coarser or finer than the natural one, and
// partial reads before Materialize; the call count is capped by scaling
// the load. It also orders a crafted tie-heavy slab drawn from the same
// input. The checked-in corpus (testdata/fuzz) holds one case per
// property.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nodes, density uint8, load, horizon float64, dual bool, dist uint8, shift int8, consume uint16) {
		if !(horizon > 0 && horizon <= 1e12) || !(load > 0 && load <= 1e12) {
			t.Skip()
		}
		n := 2 + int(nodes)%11
		r := xrand.NewGen(seed, 77)
		m := traffic.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && r.Float64()*255 < float64(density) {
					m.SetDemand(graph.NodeID(i), graph.NodeID(j), load*math.Pow(10, 6*r.Float64()-3))
				}
			}
		}
		const maxCalls = 20000
		if calls := m.Total() * horizon; calls > maxCalls {
			m = m.Scaled(maxCalls / calls)
		}
		c := streamCase{m: m, horizon: horizon, seed: seed, dual: dual, dist: holdingDists[int(dist)%len(holdingDists)], shift: int(shift) % 9, consume: int(consume) % 4096}
		checkStream(t, c)

		s, err := NewStream(m, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		epochs, pairs := make([]uint16, 1+int(consume)%2500), make([]uint8, 1+int(nodes)%20)
		for i := range epochs {
			epochs[i] = uint16(r.Float64() * float64(uint(density)<<8|255))
		}
		for i := range pairs {
			pairs[i] = uint8(r.Float64() * 64)
		}
		checkOrder(t, s, int64(shift)&63, epochs, pairs)
	})
}
