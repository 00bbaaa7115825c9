package routetable

import (
	"repro/internal/graph"
	"repro/internal/xrand"
)

// NoRow is Decide's row sentinel. As the primary row it means the pair has
// no primaries; as the admitting row it means the call is blocked.
const NoRow int32 = -1

// Thresholds is a Compiled table bound to a network's link capacities and
// up/down state: per threshold set and link, the maximum occupancy at
// which the link still admits. Admission over a row is then a branch-poor
// scan — one load and compare per hop, the clamp of r and the down/bounds
// checks all folded into the threshold at Reset:
//
//	thresh[s][k] = −1                     if link k is down
//	             = C^k − clamp(r^k_s) − 1 otherwise
//
// A down link's −1 refuses every call (occupancy is never negative); the
// clamp of r^k into [0, C^k] is the per-link trunk-reservation predicate
// occ ≤ C − r − 1 of §2, and set 0 always carries r = 0 (primaries). A
// bound Thresholds is read-only, so concurrent Decide calls may share it.
type Thresholds struct {
	comp *Compiled
	// thresh[s] is threshold set s, indexed by LinkID; back is its single
	// backing array, reused across rebuilds.
	thresh [][]int
	back   []int
	// Copies, taken at Reset, of the bound table's arrays and of the two
	// threshold sets most calls read — set 0 (prim) and the set
	// alternates use when comp.AltSet is nil (alt) — so Decide reads them
	// off t instead of through comp and its Flat on every call.
	pairOff, altStart, rowOff []int32
	links                     []graph.LinkID
	prim, alt                 []int
}

// Reset (re)binds t to comp over a numNodes-node, numLinks-link network
// and rebuilds every threshold set. linkCap reports a link's capacity and
// whether it is usable (in range and up). It reports false, leaving t
// unchanged, when the table cannot serve the network: a nil table or
// Flat, or a node or link id space that differs from the network's.
func (t *Thresholds) Reset(comp *Compiled, numNodes, numLinks int, linkCap func(graph.LinkID) (int, bool)) bool {
	if comp == nil || comp.Flat == nil || comp.NumNodes != numNodes || comp.NumLinks != numLinks {
		return false
	}
	t.comp = comp
	sets := len(comp.Prot)
	if sets == 0 {
		sets = 1
	}
	nl := comp.NumLinks
	if cap(t.back) < sets*nl {
		t.back = make([]int, sets*nl)
	}
	t.back = t.back[:sets*nl]
	if cap(t.thresh) < sets {
		t.thresh = make([][]int, sets)
	}
	t.thresh = t.thresh[:sets]
	for s := 0; s < sets; s++ {
		ts := t.back[s*nl : (s+1)*nl : (s+1)*nl]
		t.thresh[s] = ts
		var prot []int
		if s > 0 {
			// Set 0 is the primary rule: never protected, whatever Prot[0]
			// says.
			prot = comp.Prot[s]
		}
		for id := 0; id < nl; id++ {
			c, up := linkCap(graph.LinkID(id))
			if !up {
				ts[id] = -1
				continue
			}
			r := 0
			if id < len(prot) {
				r = prot[id]
			}
			if r < 0 {
				r = 0
			}
			if r > c {
				r = c
			}
			ts[id] = c - r - 1
		}
	}
	t.prim, t.alt = t.thresh[0], t.thresh[min(1, sets-1)]
	f := comp.Flat
	t.pairOff, t.altStart, t.rowOff, t.links = f.PairOff, f.AltStart, f.RowOff, f.Links
	return true
}

// Table returns the bound compiled table (nil before the first successful
// Reset).
func (t *Thresholds) Table() *Compiled { return t.comp }

// Decide runs the compiled admission rule for one call of ordered pair
// pair (origin·NumNodes+dest) against the link occupancies occ, without
// changing anything. It draws the primary row — the bifurcated weighted
// draw keyed by callID for pairs with several primaries — and scans it
// under set 0; if the primary is blocked it scans the alternates in order,
// each under its AltSet (or the default set), unless the table has
// NoAlternates.
//
// prim is the chosen primary row, or NoRow when the pair has no primaries
// (or lies outside the table): such a call is carried on the empty path,
// booking nothing. row is the admitting row — prim itself, an alternate,
// or NoRow when the call is blocked. blockIdx is the index within the
// primary row of its first blocking link (the paper's loss attribution),
// or −1 when the primary admits.
//
//altlint:hotpath
func (t *Thresholds) Decide(occ []int, pair int, callID int64) (prim, row int32, blockIdx int) {
	if uint(pair) >= uint(len(t.altStart)) {
		return NoRow, NoRow, -1
	}
	start, alt0 := t.pairOff[pair], t.altStart[pair]
	if alt0 == start {
		return NoRow, NoRow, -1
	}
	prim = start
	if alt0-start > 1 {
		// Reproduces the source table's weighted draw against the
		// precomputed cumulative sums.
		f := t.comp
		u := xrand.Uniform01(f.SelectorSeed, callID)
		prim = alt0 - 1
		for r := start; r < alt0; r++ {
			if u < f.PrimCum[r] {
				prim = r
				break
			}
		}
	}
	rowOff, links := t.rowOff, t.links
	blockIdx = firstOver(occ, links[rowOff[prim]:rowOff[prim+1]], t.prim)
	if blockIdx < 0 {
		return prim, prim, -1
	}
	if f := t.comp; !f.NoAlternates {
		for r, end := alt0, t.pairOff[pair+1]; r < end; r++ {
			ts := t.alt
			if f.AltSet != nil {
				ts = t.thresh[f.AltSet[r]]
			}
			if firstOver(occ, links[rowOff[r]:rowOff[r+1]], ts) < 0 {
				return prim, r, blockIdx
			}
		}
	}
	return prim, NoRow, blockIdx
}

// firstOver returns the index of the first link of row whose occupancy
// exceeds its threshold, or −1 when every link admits.
func firstOver(occ []int, row []graph.LinkID, ts []int) int {
	for i, id := range row {
		if occ[id] > ts[id] {
			return i
		}
	}
	return -1
}
