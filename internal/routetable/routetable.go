// Package routetable compiles a policy's route suites into the flat,
// contiguous forwarding-table layout the simulator's hot path scans: every
// O-D pair's primary and alternate paths become rows of link ids packed
// into one backing array with offset tables (the layout a controller would
// program into switches). The compiled form carries no pointers into the
// source table and never changes after Finish, so it is safe to share
// across concurrent runs.
//
// The package also holds the one admission kernel every engine shares.
// Thresholds binds a Compiled table to a network's capacities and down
// links, folding clamping, down-links, and the protection overlay into
// per-link occupancy thresholds; its Decide method is the paper's control
// rule — primary first, then alternates in order, each link admitting an
// alternate only while occ ≤ C − r − 1 — as a read-only scan. Callers keep
// only their own booking: the simulator's occupancy integral, the control
// plane's in-flight map and estimator.
package routetable

import "repro/internal/graph"

// Flat is the structural half of a compiled route table: the route suites
// of every ordered O-D pair of an n-node, l-link topology, flattened into
// contiguous arrays. Rows are grouped by pair in row-major (origin·n+dest)
// order, primaries before alternates, both in their source-table order —
// the order a blocked call attempts them.
type Flat struct {
	// NumNodes and NumLinks fix the table's node and link id spaces; a
	// consumer must check they match its topology before indexing.
	NumNodes, NumLinks int
	// PairOff indexes rows by ordered pair p = origin·NumNodes+dest: the
	// pair's route suite is rows [PairOff[p], PairOff[p+1]). Length
	// NumNodes²+1.
	PairOff []int32
	// AltStart[p] is the absolute row where pair p's alternates begin;
	// rows [PairOff[p], AltStart[p]) are the pair's primaries. A pair with
	// AltStart[p] == PairOff[p] has no primaries (its suite was absent),
	// which callers must treat exactly as the source table treats a nil
	// route set. Length NumNodes².
	AltStart []int32
	// RowOff indexes Links by row: row r traverses links
	// Links[RowOff[r]:RowOff[r+1]], so its hop count is the range length.
	// Length NumRows()+1.
	RowOff []int32
	// Links holds every row's link ids, concatenated.
	Links []graph.LinkID
	// PrimCum is the cumulative primary selection weight per row, filled
	// for primary rows only and built with the same left-to-right
	// accumulation the source table's weighted draw uses, so a consumer
	// comparing a uniform variate against PrimCum reproduces that draw
	// bit for bit. Nil when no pair has more than one primary.
	PrimCum []float64
	// SelectorSeed seeds the deterministic per-call primary draw for
	// bifurcated pairs (see xrand.Uniform01).
	SelectorSeed int64
}

// NumRows returns the total number of flattened route rows.
func (f *Flat) NumRows() int { return len(f.RowOff) - 1 }

// Row returns the link ids of row r.
//
//altlint:hotpath
func (f *Flat) Row(r int32) []graph.LinkID { return f.Links[f.RowOff[r]:f.RowOff[r+1]] }

// Compiled binds a Flat to one policy's admission rule: which protection
// levels apply to which rows. Threshold set 0 is always the primary rule
// (no protection); alternates are checked under the set named by AltSet,
// or set min(1, len(Prot)−1) when AltSet is nil.
type Compiled struct {
	*Flat
	// Prot holds one per-link protection-level vector (indexed by LinkID)
	// per threshold set. Prot[0] is the primary set and must be nil —
	// primaries are never protected against. A vector shorter than
	// NumLinks means the missing links carry no protection, mirroring
	// sim.State.PathAdmitsAlternate.
	Prot [][]int
	// AltSet names the threshold set each row uses when attempted as an
	// alternate, indexed by absolute row; entries for primary rows are
	// ignored. Nil means every alternate uses set min(1, len(Prot)−1).
	AltSet []uint8
	// NoAlternates marks single-path policies: a call blocked on its
	// primary is lost without attempting the alternate rows.
	NoAlternates bool
}

// Builder accumulates route rows pair by pair and produces the Flat form.
// Pairs must be visited in row-major order — exactly NumNodes² StartPair
// calls — with each pair's primaries added before its alternates. Any
// misuse (out-of-range link id, primary after alternate, wrong pair
// count) poisons the builder and Finish returns nil; callers treat a nil
// Flat as "not compilable" and keep their interpreted path.
type Builder struct {
	numNodes, numLinks int
	selectorSeed       int64

	pairOff  []int32
	altStart []int32
	rowOff   []int32
	links    []graph.LinkID
	// primCum stays nil until some pair gets a second primary: only such
	// pairs' rows are ever read, so single-primary tables never carry it.
	primCum []float64

	acc     float64 // running primary-weight sum of the open pair
	open    bool
	sawAlt  bool
	prims   int // primaries of the open pair
	pairs   int
	invalid bool
}

// NewBuilder returns a builder for an numNodes-node topology whose link
// ids lie in [0, numLinks). selectorSeed is recorded verbatim into the
// Flat for the bifurcated-primary draw.
func NewBuilder(numNodes, numLinks int, selectorSeed int64) *Builder {
	b := &Builder{numNodes: numNodes, numLinks: numLinks, selectorSeed: selectorSeed}
	b.pairOff = append(make([]int32, 0, numNodes*numNodes+1), 0)
	b.altStart = make([]int32, 0, numNodes*numNodes)
	b.rowOff = append(b.rowOff, 0)
	return b
}

// Reserve sizes the builder for a table of rows route rows holding links
// link ids in all, so a build that adds exactly that many allocates RowOff,
// Links and (if needed) PrimCum once, at their final length. Call it before
// the first row; a build that outgrows the reservation still completes.
func (b *Builder) Reserve(rows, links int) {
	b.rowOff = append(make([]int32, 0, rows+1), b.rowOff...)
	b.links = append(make([]graph.LinkID, 0, links), b.links...)
}

// StartPair opens the next ordered pair in row-major order, closing the
// previous one.
func (b *Builder) StartPair() {
	b.closePair()
	b.open = true
	b.acc = 0
	b.prims = 0
	b.pairs++
}

func (b *Builder) closePair() {
	if !b.open {
		return
	}
	if !b.sawAlt {
		// Every row of the pair was a primary; alternates begin (and end)
		// at the pair's row boundary.
		b.altStart = append(b.altStart, int32(b.rows()))
	}
	b.pairOff = append(b.pairOff, int32(b.rows()))
	b.open = false
	b.sawAlt = false
}

func (b *Builder) rows() int { return len(b.rowOff) - 1 }

// appendRow validates and stores one row's links.
func (b *Builder) appendRow(links []graph.LinkID) {
	for _, id := range links {
		if uint(id) >= uint(b.numLinks) {
			b.invalid = true
			return
		}
	}
	b.links = append(b.links, links...)
	b.rowOff = append(b.rowOff, int32(len(b.links)))
	if b.primCum != nil {
		b.primCum = append(b.primCum, 0)
	}
}

// Primary adds one primary row with its selection weight to the open
// pair. Weights accumulate left to right into the row's cumulative sum.
func (b *Builder) Primary(links []graph.LinkID, weight float64) {
	if !b.open || b.sawAlt {
		b.invalid = true
		return
	}
	prev := b.acc
	b.acc += weight
	b.appendRow(links)
	if b.invalid {
		return
	}
	b.prims++
	if b.prims == 2 && b.primCum == nil {
		// The table's first bifurcated pair: the rows before it are never
		// read, so they stay zero; the pair's first primary summed to prev.
		b.primCum = make([]float64, b.rows(), cap(b.rowOff)-1)
		b.primCum[b.rows()-2] = prev
	}
	if b.primCum != nil {
		b.primCum[b.rows()-1] = b.acc
	}
}

// Alternate adds one alternate row to the open pair.
func (b *Builder) Alternate(links []graph.LinkID) {
	if !b.open {
		b.invalid = true
		return
	}
	if !b.sawAlt {
		b.altStart = append(b.altStart, int32(b.rows()))
		b.sawAlt = true
	}
	b.appendRow(links)
}

// Finish closes the last pair and returns the immutable Flat, or nil if
// the builder was misused (see Builder).
func (b *Builder) Finish() *Flat {
	b.closePair()
	if b.invalid || b.pairs != b.numNodes*b.numNodes {
		return nil
	}
	return &Flat{
		NumNodes:     b.numNodes,
		NumLinks:     b.numLinks,
		PairOff:      b.pairOff,
		AltStart:     b.altStart,
		RowOff:       b.rowOff,
		Links:        b.links,
		PrimCum:      b.primCum,
		SelectorSeed: b.selectorSeed,
	}
}
