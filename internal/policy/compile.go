package policy

import "repro/internal/routetable"

// This file implements sim.TableCompiler for the table-driven policies:
// each one describes its routing decision as the table's flattened route
// rows (routetable.Flat, shared and built once per table) plus the
// protection-level overlay that distinguishes the schemes. sim.Run uses
// the compiled form to execute these policies on its fast path; the
// Route/PrimaryPath methods remain the semantic ground truth (and the
// fallback for everything not listed here, e.g. Ott–Krishnan).

// Flat returns the table's compiled forwarding layout: every pair's
// primaries and alternates flattened into contiguous link-id rows. It is
// built on first use and cached — safe under concurrent use, since tables
// are shared across parallel runs — and snapshots the suites as they are
// at that moment: tables are treated as immutable once routing starts.
// A nil return means the table cannot be flattened (a route references a
// link outside the graph's id space) and callers must stay interpreted.
func (t *Table) Flat() *routetable.Flat {
	t.flatOnce.Do(t.buildFlat)
	return t.flat
}

func (t *Table) buildFlat() {
	b := routetable.NewBuilder(t.n, t.g.NumLinks(), t.selectorSeed)
	// Counting the rows and link ids first lets the builder allocate its
	// slabs once, at their exact size.
	rows, links := 0, 0
	for _, rs := range t.sets {
		if rs == nil {
			continue
		}
		rows += len(rs.Primaries) + len(rs.Alternates)
		for _, wp := range rs.Primaries {
			links += len(wp.Path.Links)
		}
		for _, alt := range rs.Alternates {
			links += len(alt.Links)
		}
	}
	b.Reserve(rows, links)
	for p := 0; p < t.n*t.n; p++ {
		b.StartPair()
		rs := t.sets[p]
		if rs == nil {
			continue
		}
		for _, wp := range rs.Primaries {
			b.Primary(wp.Path.Links, wp.Weight)
		}
		for _, alt := range rs.Alternates {
			b.Alternate(alt.Links)
		}
	}
	t.flat = b.Finish()
}

// compiled wraps a Flat with a protection overlay, reporting ok=false for
// an unflattenable table.
func compiled(f *routetable.Flat, prot [][]int, noAlt bool) (*routetable.Compiled, bool) {
	if f == nil {
		return nil, false
	}
	return &routetable.Compiled{Flat: f, Prot: prot, NoAlternates: noAlt}, true
}

// CompileRoutes implements sim.TableCompiler: primaries only, no
// alternate rows attempted.
func (p SinglePath) CompileRoutes() (*routetable.Compiled, bool) {
	return compiled(p.T.Flat(), [][]int{nil}, true)
}

// CompileRoutes implements sim.TableCompiler: alternates admitted with no
// protection (r = 0 everywhere).
func (p Uncontrolled) CompileRoutes() (*routetable.Compiled, bool) {
	return compiled(p.T.Flat(), [][]int{nil}, false)
}

// CompileRoutes implements sim.TableCompiler: alternates admitted under
// the per-link protection levels R.
func (p Controlled) CompileRoutes() (*routetable.Compiled, bool) {
	return compiled(p.T.Flat(), [][]int{nil, p.R}, false)
}

// CompileRoutes implements sim.TableCompiler against the policy's current
// table and levels. sim.Run re-invokes it after every failure/repair
// epoch, so Swap (core.AdaptiveScheme's rederivation) is picked up by the
// compiled engine exactly when the interpreted one would see it.
func (p *Dynamic) CompileRoutes() (*routetable.Compiled, bool) {
	return compiled(p.t.Flat(), [][]int{nil, p.r}, false)
}

// CompileRoutes implements sim.TableCompiler: each alternate row is
// assigned the short or long threshold set by its hop count, mirroring
// the SplitHops test in Route.
func (p ControlledTiered) CompileRoutes() (*routetable.Compiled, bool) {
	f := p.T.Flat()
	if f == nil {
		return nil, false
	}
	sets := make([]uint8, f.NumRows())
	for r := range sets {
		set := uint8(2)
		if int(f.RowOff[r+1]-f.RowOff[r]) <= p.SplitHops {
			set = 1
		}
		sets[r] = set
	}
	return &routetable.Compiled{
		Flat:   f,
		Prot:   [][]int{nil, p.RShort, p.RLong},
		AltSet: sets,
	}, true
}
