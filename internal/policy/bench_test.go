package policy

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
)

// BenchmarkBuildMinHop times route-table construction, the route layer of
// every scheme set-up: the 200-node metro at H=2 (the metro-stream workload's
// table) and NSFNet at the paper's H=11. The -flat case also compiles the
// table into its routetable.Flat, which the first sim.Run of a process does.
func BenchmarkBuildMinHop(b *testing.B) {
	metro := netmodel.Metro(50, 4, 30, 60)
	cases := []struct {
		name string
		g    *graph.Graph
		h    int
		flat bool
	}{
		{"metro200-H2", metro, 2, false},
		{"metro200-H2-flat", metro, 2, true},
		{"nsfnet-H11", netmodel.NSFNet(), 11, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := BuildMinHop(c.g, c.h)
				if err != nil {
					b.Fatal(err)
				}
				if c.flat && t.Flat() == nil {
					b.Fatal("table did not flatten")
				}
			}
		})
	}
}
