package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// GeneralMeshCase is one random topology's outcome in the generalization
// study: the paper's title claims the scheme works on *general* meshes, so
// we verify the single-path-dominance guarantee across a family of random
// connected networks with random demand matrices, sized to block noticeably.
type GeneralMeshCase struct {
	Seed         int64
	Nodes, Links int
	Offered      float64
	// Blocking per policy (pooled over simulation seeds).
	Single, Uncontrolled, Controlled float64
	// GuaranteeHolds records controlled-accepts >= single-accepts within the
	// statistical slack.
	GuaranteeHolds bool
}

// GeneralMesh runs the study over `cases` random topologies (default 10).
func GeneralMesh(cases int, p SimParams) ([]GeneralMeshCase, error) {
	if cases <= 0 {
		cases = 10
	}
	p = p.withDefaults()
	var out []GeneralMeshCase
	for seed := int64(0); seed < int64(cases); seed++ {
		g, m := randomMesh(seed)
		scheme, err := core.New(g, m, core.Options{})
		if err != nil {
			return nil, err
		}
		pols := []sim.Policy{scheme.SinglePath(), scheme.Uncontrolled(), scheme.Controlled()}
		trace := func(s int) (*sim.Trace, error) {
			return sim.GenerateTrace(m, p.Horizon, int64(s)+1000*seed), nil
		}
		runs, err := results(g, p.quiet(), trace, each(pols...))
		if err != nil {
			return nil, err
		}
		var blocked, accepted [3]int64
		var offered int64
		for _, seedRuns := range runs {
			for i, res := range seedRuns {
				blocked[i] += res.Blocked
				accepted[i] += res.Accepted
			}
			offered += seedRuns[0].Offered
		}
		c := GeneralMeshCase{
			Seed:         seed,
			Nodes:        g.NumNodes(),
			Links:        g.NumLinks(),
			Offered:      m.Total(),
			Single:       float64(blocked[0]) / float64(offered),
			Uncontrolled: float64(blocked[1]) / float64(offered),
			Controlled:   float64(blocked[2]) / float64(offered),
		}
		c.GuaranteeHolds = accepted[2]+offered/500 >= accepted[0]
		out = append(out, c)
	}
	return out, nil
}

// randomMesh builds a deterministic random connected duplex topology (6–12
// nodes, tree + extra chords, capacities 20–60) and a random demand matrix
// scaled so single-path blocking is noticeable (each adjacent pair's demand
// is drawn near its direct link's capacity; non-adjacent pairs are lighter).
func randomMesh(seed int64) (*graph.Graph, *traffic.Matrix) {
	r := xrand.New(seed, 424242)
	n := 6 + r.Intn(7)
	g := graph.New()
	g.AddNodes(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		a := graph.NodeID(perm[i])
		b := graph.NodeID(perm[r.Intn(i)])
		g.AddDuplex(a, b, 20+r.Intn(41)) //nolint:errcheck // distinct fresh pairs
	}
	for e := 0; e < n; e++ {
		a := graph.NodeID(r.Intn(n))
		b := graph.NodeID(r.Intn(n))
		if a == b || g.LinkBetween(a, b) != graph.InvalidLink {
			continue
		}
		if _, _, err := g.AddDuplex(a, b, 20+r.Intn(41)); err != nil {
			continue
		}
	}
	m := traffic.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a, b := graph.NodeID(i), graph.NodeID(j)
			if id := g.LinkBetween(a, b); id != graph.InvalidLink {
				cap := float64(g.Link(id).Capacity)
				m.SetDemand(a, b, cap*(0.6+0.5*r.Float64()))
			} else if r.Float64() < 0.5 {
				m.SetDemand(a, b, 2+8*r.Float64())
			}
		}
	}
	return g, m
}

// RenderGeneralMesh prints the study.
func RenderGeneralMesh(cases []GeneralMeshCase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generalization: random connected meshes, random demands\n")
	fmt.Fprintf(&b, "%-6s %6s %6s %10s %10s %14s %12s %10s\n",
		"seed", "nodes", "links", "Erlangs", "single", "uncontrolled", "controlled", "guarantee")
	holds := 0
	for _, c := range cases {
		ok := "OK"
		if !c.GuaranteeHolds {
			ok = "VIOLATED"
		} else {
			holds++
		}
		fmt.Fprintf(&b, "%-6d %6d %6d %10.1f %10.4f %14.4f %12.4f %10s\n",
			c.Seed, c.Nodes, c.Links, c.Offered, c.Single, c.Uncontrolled, c.Controlled, ok)
	}
	fmt.Fprintf(&b, "guarantee held on %d/%d random meshes\n", holds, len(cases))
	return b.String()
}
