package policy

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
)

// BenchmarkBuildMinHop times route-table construction, the route layer of
// every scheme set-up: the 200-node metro at H=2 (the metro-stream workload's
// table) and NSFNet at the paper's H=11.
func BenchmarkBuildMinHop(b *testing.B) {
	cases := []struct {
		name string
		g    *graph.Graph
		h    int
	}{
		{"metro200-H2", netmodel.Metro(50, 4, 30, 60), 2},
		{"nsfnet-H11", netmodel.NSFNet(), 11},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildMinHop(c.g, c.h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
