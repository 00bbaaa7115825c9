package sim_test

import (
	"container/heap"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/routetable"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// decideTables returns the route tables the differential fuzzer draws
// from: min-hop tables over a small complete mesh and a ring (both with
// capacity 3, so occupancy sweeps every state), and a bifurcated table
// over the mesh — two primaries per pair, three for pairs out of node 0 —
// so the kernel's weighted primary draw is exercised.
func decideTables(tb testing.TB) []*policy.Table {
	tb.Helper()
	mesh := netmodel.Complete(4, 3)
	meshTbl, err := policy.BuildMinHop(mesh, 0)
	if err != nil {
		tb.Fatal(err)
	}
	ringTbl, err := policy.BuildMinHop(netmodel.Ring(5, 3), 0)
	if err != nil {
		tb.Fatal(err)
	}
	prims := map[[2]graph.NodeID][]policy.WeightedPath{}
	n := mesh.NumNodes()
	for i := graph.NodeID(0); int(i) < n; i++ {
		for j := graph.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			rs := meshTbl.Routes(i, j)
			wp := []policy.WeightedPath{{Path: rs.Primaries[0].Path, Weight: 0.6}, {Path: rs.Alternates[0], Weight: 0.4}}
			if i == 0 {
				wp = []policy.WeightedPath{{Path: rs.Primaries[0].Path, Weight: 0.5}, {Path: rs.Alternates[0], Weight: 0.3}, {Path: rs.Alternates[1], Weight: 0.2}}
			}
			prims[[2]graph.NodeID{i, j}] = wp
		}
	}
	bifTbl, err := policy.BuildBifurcated(mesh, prims, 0, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return []*policy.Table{meshTbl, ringTbl, bifTbl}
}

// decidePolicy builds one of the four compilable table-driven policies.
// Protection levels are drawn from prot (values spanning −1..C+1, so the
// kernel's clamp is exercised); the Controlled vector is cut to
// protLen % (links+1) entries, so it may be shorter than the link space.
func decidePolicy(tbl *policy.Table, kind uint8, prot []byte, protLen uint8) sim.TableCompiler {
	nl := tbl.Graph().NumLinks()
	levels := func(off, n int) []int {
		r := make([]int, n)
		for k := range r {
			if len(prot) > 0 {
				r[k] = int(prot[(k+off)%len(prot)]%6) - 1
			}
		}
		return r
	}
	switch kind % 4 {
	case 0:
		return policy.SinglePath{T: tbl}
	case 1:
		return policy.Uncontrolled{T: tbl}
	case 2:
		return policy.Controlled{T: tbl, R: levels(0, int(protLen)%(nl+1))}
	default:
		return policy.ControlledTiered{T: tbl, SplitHops: 2, RShort: levels(0, nl), RLong: levels(nl, nl)}
	}
}

// FuzzDecideMatchesRoute checks the shared admission kernel against the
// interpreted policies it replaces: for a drawn occupancy vector
// (0 ≤ occ ≤ C), down set, O-D pair and call id, Thresholds.Decide must
// agree with Policy.Route on (admitted, alternate, path) and with
// PrimaryPath + State.PathAdmitsPrimary on the primary and its first
// blocking link, and must leave the occupancy untouched.
func FuzzDecideMatchesRoute(f *testing.F) {
	tables := decideTables(f)
	f.Add(uint8(0), uint8(2), uint8(1), int64(1), uint64(0), []byte{3, 3, 3, 0}, []byte{2}, uint8(3))
	f.Add(uint8(2), uint8(3), uint8(6), int64(99), uint64(0x5), []byte{0, 3, 1, 2, 3}, []byte{0, 5, 1}, uint8(12))
	f.Add(uint8(1), uint8(1), uint8(7), int64(-4), uint64(0x3ff), []byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, table, kind, pair uint8, callID int64, downMask uint64, occ, prot []byte, protLen uint8) {
		tbl := tables[int(table)%len(tables)]
		g := tbl.Graph()
		pol := decidePolicy(tbl, kind, prot, protLen)
		n, nl := g.NumNodes(), g.NumLinks()

		st := sim.NewState(g)
		for k := 0; k < nl; k++ {
			id := graph.LinkID(k)
			if downMask&(1<<(k%64)) != 0 {
				st.SetLinkDown(id, true)
			}
			if len(occ) > 0 {
				for o := int(occ[k%len(occ)]) % (g.Link(id).Capacity + 1); o > 0; o-- {
					st.OccupyLink(id)
				}
			}
		}
		comp, ok := pol.CompileRoutes()
		var th routetable.Thresholds
		if !ok || !st.Bind(&th, comp) {
			t.Fatalf("%s does not compile", pol.Name())
		}
		before := make([]int, nl)
		for k := range before {
			before[k] = st.Occupancy(graph.LinkID(k))
		}

		c := sim.Call{ID: int(callID), Origin: graph.NodeID(int(pair) % n), Dest: graph.NodeID(int(pair) / n % n)}
		prim, row, blockIdx := st.Decide(&th, int(c.Origin)*n+int(c.Dest), int64(c.ID))
		for k := range before {
			if got := st.Occupancy(graph.LinkID(k)); got != before[k] {
				t.Fatalf("Decide changed occupancy of link %d: %d → %d", k, before[k], got)
			}
		}

		tab := th.Table()
		var primRow, gotPath []graph.LinkID
		if prim != routetable.NoRow {
			primRow = tab.Row(prim)
		}
		admitted := prim == routetable.NoRow || row != routetable.NoRow
		if row != routetable.NoRow {
			gotPath = tab.Row(row)
		}
		label := func() string {
			return pol.Name() + " " + g.NodeName(c.Origin) + "→" + g.NodeName(c.Dest)
		}

		p, alternate, ok := pol.Route(st, c)
		if ok != admitted || alternate != (row != prim && admitted) || !slices.Equal(p.Links, gotPath) {
			t.Fatalf("%s: Decide (prim %d, row %d) admitted=%v path %v; Route admitted=%v alternate=%v path %v",
				label(), prim, row, admitted, gotPath, ok, alternate, p.Links)
		}
		primary := pol.PrimaryPath(st, c)
		if !slices.Equal(primary.Links, primRow) {
			t.Fatalf("%s: Decide primary %v, PrimaryPath %v", label(), primRow, primary.Links)
		}
		wantBlock := graph.InvalidLink
		if blockIdx >= 0 {
			wantBlock = primRow[blockIdx]
		}
		if admits, blockLink := st.PathAdmitsPrimary(primary); admits != (blockIdx < 0) || blockLink != wantBlock {
			t.Fatalf("%s: Decide blocks primary %v at index %d; PathAdmitsPrimary = (%v, %d)",
				label(), primRow, blockIdx, admits, blockLink)
		}
	})
}

// rowDeparture is one booked row and its departure epoch; rowDepartures
// is their min-heap, for the replay that records BenchmarkDecide's
// occupancy sequence.
type rowDeparture struct {
	at  float64
	row int32
}

type rowDepartures []rowDeparture

func (h rowDepartures) Len() int           { return len(h) }
func (h rowDepartures) Less(i, j int) bool { return h[i].at < h[j].at }
func (h rowDepartures) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rowDepartures) Push(x any)        { *h = append(*h, x.(rowDeparture)) }
func (h *rowDepartures) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// BenchmarkDecide times the admission-scan layer alone: one
// Thresholds.Decide per op over the NSFNet controlled table (H = 11), at
// nominal load, against a replayed occupancy sequence — the occupancy
// vector each arrival of a real trace met, recorded by replaying the
// trace through the same kernel with bookings and departures. The scan
// must not allocate.
func BenchmarkDecide(b *testing.B) {
	g := netmodel.NSFNet()
	m, _, err := traffic.NSFNetNominal()
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := core.New(g, m, core.Options{H: 11})
	if err != nil {
		b.Fatal(err)
	}
	comp, ok := scheme.Controlled().(sim.TableCompiler).CompileRoutes()
	st := sim.NewState(g)
	var th routetable.Thresholds
	if !ok || !st.Bind(&th, comp) {
		b.Fatal("controlled NSFNet table does not compile")
	}
	const warmup, maxCalls = 10, 8192
	n, nl := g.NumNodes(), g.NumLinks()
	var (
		occs  []int
		pairs []int
		ids   []int64
		deps  rowDepartures
	)
	for _, c := range sim.GenerateTrace(m, 60, 1).Calls {
		for len(deps) > 0 && deps[0].at <= c.Arrival {
			for _, id := range comp.Row(heap.Pop(&deps).(rowDeparture).row) {
				st.ReleaseLink(id)
			}
		}
		pair := int(c.Origin)*n + int(c.Dest)
		if c.Arrival >= warmup && len(pairs) < maxCalls {
			for k := 0; k < nl; k++ {
				occs = append(occs, st.Occupancy(graph.LinkID(k)))
			}
			pairs = append(pairs, pair)
			ids = append(ids, int64(c.ID))
		}
		if _, row, _ := st.Decide(&th, pair, int64(c.ID)); row != routetable.NoRow {
			for _, id := range comp.Row(row) {
				st.OccupyLink(id)
			}
			heap.Push(&deps, rowDeparture{c.Arrival + c.Holding, row})
		}
	}

	blocked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pairs)
		if _, row, _ := th.Decide(occs[j*nl:(j+1)*nl], pairs[j], ids[j]); row == routetable.NoRow {
			blocked++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(blocked)/float64(b.N), "blocked/op")
}
