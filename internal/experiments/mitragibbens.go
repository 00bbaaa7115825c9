package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/netmodel"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// MitraGibbensRow is one load point of the §3.2 comparison: our Equation-15
// protection level for a C=120 link with H=2, beside the simulated best
// protection level found by exhaustive search on a symmetric fully-connected
// network. The paper reports the Mitra–Gibbens optimal r values "differ by
// at most two with respect to the results that we get at moderately high
// loads (Λ ∈ [110, 120])".
type MitraGibbensRow struct {
	Load float64
	// OurR is the Equation 15 level (C=120, H=2).
	OurR int
	// BestSimR is the uniform protection level minimizing simulated
	// blocking on the symmetric network (argmin over the searched range).
	BestSimR int
	// BestSimBlocking is the blocking at BestSimR; OurBlocking at OurR.
	BestSimBlocking, OurBlocking float64
}

// MitraGibbensOptions configures the comparison.
type MitraGibbensOptions struct {
	// Nodes for the symmetric fully-connected simulation network (default 5,
	// large enough for two-hop alternates with several choices, small enough
	// to search r exhaustively).
	Nodes int
	// Capacity per link (paper: 120).
	Capacity int
	// Loads are the per-pair offered loads (default {110, 115, 120}).
	Loads []float64
	// MaxR bounds the protection-level search (default 12).
	MaxR int
	// Sim parameters (fewer seeds than the figures; the search multiplies
	// run counts).
	Sim SimParams
}

// MitraGibbens runs the comparison: for each load, compute our r, then
// simulate uniform-r controlled routing with H=2 for every r in [0, MaxR]
// and record the empirically best level.
func MitraGibbens(opts MitraGibbensOptions) ([]MitraGibbensRow, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 5
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 120
	}
	if opts.Loads == nil {
		opts.Loads = []float64{110, 115, 120}
	}
	if opts.MaxR <= 0 {
		opts.MaxR = 12
	}
	p := opts.Sim.withDefaults()
	g := netmodel.Complete(opts.Nodes, opts.Capacity)
	var out []MitraGibbensRow
	for _, load := range opts.Loads {
		m := traffic.Uniform(opts.Nodes, load)
		scheme, err := core.New(g, m, core.Options{H: 2})
		if err != nil {
			return nil, err
		}
		row := MitraGibbensRow{
			Load: load,
			OurR: erlang.ProtectionLevel(load, opts.Capacity, 2),
		}
		blockingAt := func(r int) (float64, error) {
			rs := make([]int, g.NumLinks())
			for i := range rs {
				rs[i] = r
			}
			runs, err := results(g, p.quiet(), poisson(m, p.Horizon), each(controlledWithR(scheme, rs)))
			if err != nil {
				return 0, err
			}
			var b, o int64
			for _, res := range runs {
				b += res[0].Blocked
				o += res[0].Offered
			}
			return float64(b) / float64(o), nil
		}
		bestR, bestB := 0, 2.0
		for r := 0; r <= opts.MaxR; r++ {
			b, err := blockingAt(r)
			if err != nil {
				return nil, err
			}
			if b < bestB {
				bestR, bestB = r, b
			}
			if r == row.OurR {
				row.OurBlocking = b
			}
		}
		if row.OurR > opts.MaxR {
			b, err := blockingAt(row.OurR)
			if err != nil {
				return nil, err
			}
			row.OurBlocking = b
		}
		row.BestSimR = bestR
		row.BestSimBlocking = bestB
		out = append(out, row)
	}
	return out, nil
}

// controlledWithR builds a controlled policy with an explicit uniform
// protection vector over the scheme's route table.
func controlledWithR(s *core.Scheme, r []int) sim.Policy {
	return policy.Controlled{T: s.Table, R: r}
}

// RenderMitraGibbens prints the rows.
func RenderMitraGibbens(rows []MitraGibbensRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Equation-15 r vs simulated-optimal r (C=120, H=2, symmetric network)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %14s %14s\n", "Λ", "our r", "best r", "B(our r)", "B(best r)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.3g %8d %8d %14.5f %14.5f\n",
			r.Load, r.OurR, r.BestSimR, r.OurBlocking, r.BestSimBlocking)
	}
	return b.String()
}
