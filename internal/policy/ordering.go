package policy

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/sim"
)

// ReorderDisjointFirst returns a copy of the table whose alternate suites
// are stably reordered so paths link-disjoint from the pair's primary come
// first (within the disjoint and non-disjoint groups the original
// increasing-length order is kept). An alternate sharing links with the
// primary can never help a call blocked on those shared links; under the
// instantaneous model attempting it merely fails, but under two-phase
// signaling each futile attempt costs a round trip — disjoint-first ordering
// removes that latency without changing which calls are ultimately
// admitted.
//
// Bifurcated tables are reordered against their first (highest-weight)
// primary.
func ReorderDisjointFirst(t *Table) *Table {
	out := &Table{
		g:            t.g,
		MaxAltHops:   t.MaxAltHops,
		n:            t.n,
		sets:         make([]*RouteSet, len(t.sets)),
		selectorSeed: t.selectorSeed,
	}
	for key, rs := range t.sets {
		if rs == nil {
			continue
		}
		prim := rs.Primaries[0].Path
		onPrimary := make(map[graph.LinkID]bool, len(prim.Links))
		for _, id := range prim.Links {
			onPrimary[id] = true
		}
		disjoint := func(p paths.Path) bool {
			for _, id := range p.Links {
				if onPrimary[id] {
					return false
				}
			}
			return true
		}
		alts := append([]paths.Path(nil), rs.Alternates...)
		sort.SliceStable(alts, func(i, j int) bool {
			return disjoint(alts[i]) && !disjoint(alts[j])
		})
		out.sets[key] = &RouteSet{Primaries: rs.Primaries, Alternates: alts}
	}
	return out
}

// The tiered and least-busy policies also implement sim.AttemptPolicy so
// they can run under the two-phase signaling model.

// Attempt implements sim.AttemptPolicy.
func (p ControlledTiered) Attempt(c sim.Call, i int) (paths.Path, bool, bool) {
	if i == 0 {
		return p.T.SelectPrimary(c), false, true
	}
	alts := p.T.AlternatesOf(c)
	if i-1 < len(alts) {
		return alts[i-1], true, true
	}
	return paths.Path{}, false, false
}

// AdmitsHop implements sim.AttemptPolicy. The signaling runner carries
// the attempt's path, but AdmitsHop's signature passes only the link, so
// the hop rule cannot see the path's length and uses the stricter
// (long-class) levels for alternates — a conservative approximation
// documented here; the instantaneous runner applies the exact per-length
// rule.
func (p ControlledTiered) AdmitsHop(s *sim.State, id graph.LinkID, alternate bool) bool {
	if !alternate {
		return s.AdmitsPrimary(id)
	}
	return s.AdmitsAlternate(id, p.RLong[id])
}

// Attempt implements sim.AttemptPolicy: least-busy selection is
// state-dependent at decision time, which the hop-by-hop signaling model
// cannot reproduce faithfully; the attempt sequence falls back to
// increasing length (the selection difference only affects which admitted
// alternate carries the call, not admission itself).
func (p LeastBusyAlternate) Attempt(c sim.Call, i int) (paths.Path, bool, bool) {
	if i == 0 {
		return p.T.SelectPrimary(c), false, true
	}
	alts := p.T.AlternatesOf(c)
	if i-1 < len(alts) {
		return alts[i-1], true, true
	}
	return paths.Path{}, false, false
}

// AdmitsHop implements sim.AttemptPolicy.
func (p LeastBusyAlternate) AdmitsHop(s *sim.State, id graph.LinkID, alternate bool) bool {
	if !alternate {
		return s.AdmitsPrimary(id)
	}
	prot := 0
	if p.R != nil {
		prot = p.R[id]
	}
	return s.AdmitsAlternate(id, prot)
}
