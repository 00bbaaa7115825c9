package sim

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/routetable"
)

// State is the instantaneous network state visible to routing policies: the
// occupancy (number of calls in progress) of every link. In the paper's
// architecture each node only consults the state of links incident on it,
// checked hop-by-hop by the call set-up packet; the simulator's centralized
// state with per-link admission checks is behaviourally identical when
// set-up propagation is instantaneous (see signaling.go for the latency
// variant).
type State struct {
	g   *graph.Graph
	occ []int
	// links is the graph's live link-record view (see graph.LinkView):
	// admission checks read capacity through it without a per-access record
	// copy. Links added after NewState are not visible (occ is sized at
	// creation anyway).
	links []graph.Link
	// down is the run-local failure state, snapshotted from the graph's
	// static Down flags at NewState and updated only through SetLinkDown.
	// Dynamic failure injection (sim.Config.Failures) mutates this bitmap,
	// never the graph itself, so concurrent runs sharing one topology stay
	// independent.
	down []bool
}

// NewState returns an all-idle state for the graph. The graph's Down flags
// are snapshotted: later SetDown calls on the graph are not seen by this
// state (use SetLinkDown for mid-run failure events).
func NewState(g *graph.Graph) *State {
	links := g.LinkView()
	down := make([]bool, len(links))
	for i := range links {
		down[i] = links[i].Down
	}
	return &State{g: g, occ: make([]int, len(links)), links: links, down: down}
}

// Graph returns the underlying topology.
func (s *State) Graph() *graph.Graph { return s.g }

// Occupancy returns the number of calls in progress on the link.
func (s *State) Occupancy(id graph.LinkID) int { return s.occ[id] }

// LinkDown reports the link's failure state as seen by this run: the
// graph's static flags at NewState plus any SetLinkDown events applied
// since. Links out of range count as down.
func (s *State) LinkDown(id graph.LinkID) bool {
	return uint(id) >= uint(len(s.down)) || s.down[id]
}

// SetLinkDown updates the run-local failure state of a link. The graph
// itself is untouched, so concurrent runs sharing a topology are not
// affected; sim.Run drives this from Config.Failures. Out-of-range ids are
// ignored.
func (s *State) SetLinkDown(id graph.LinkID, down bool) {
	if uint(id) < uint(len(s.down)) {
		s.down[id] = down
	}
}

// linkCap is the single guarded link lookup behind every admission check:
// it returns the link's capacity and whether the link is usable (in range
// and up). Free, AdmitsAlternate, and the compiled threshold build (Bind)
// all share it, so the bounds+down rule lives in exactly one place.
func (s *State) linkCap(id graph.LinkID) (int, bool) {
	if uint(id) >= uint(len(s.links)) || s.down[id] {
		return 0, false
	}
	return s.links[id].Capacity, true
}

// Bind binds th to the compiled table over this state's topology, link
// capacities, and current down flags, rebuilding every threshold set. It
// reports false when the table does not fit the topology (see
// routetable.Thresholds.Reset); call it again after any link changes
// state.
func (s *State) Bind(th *routetable.Thresholds, comp *routetable.Compiled) bool {
	return th.Reset(comp, s.g.NumNodes(), s.g.NumLinks(), s.linkCap)
}

// Decide runs the compiled admission rule of a bound th for one call of
// ordered pair pair against the current occupancies, changing nothing
// (see routetable.Thresholds.Decide).
func (s *State) Decide(th *routetable.Thresholds, pair int, callID int64) (prim, row int32, blockIdx int) {
	return th.Decide(s.occ, pair, callID)
}

// Free returns the spare capacity of the link (0 for down or unknown
// links).
func (s *State) Free(id graph.LinkID) int {
	c, up := s.linkCap(id)
	if !up {
		return 0
	}
	return c - s.occ[id]
}

// AdmitsPrimary reports whether the link can accept one more primary-routed
// call: it is up and has spare capacity.
func (s *State) AdmitsPrimary(id graph.LinkID) bool {
	return s.Free(id) >= 1
}

// AdmitsAlternate reports whether the link can accept one more
// alternate-routed call under state-protection level r: the link refuses
// alternates in its last r+1 states (C−r, …, C), i.e. it admits iff
// occupancy <= C−r−1 (§2).
func (s *State) AdmitsAlternate(id graph.LinkID, r int) bool {
	c, up := s.linkCap(id)
	if !up {
		return false
	}
	if r < 0 {
		r = 0
	}
	if r > c {
		r = c
	}
	return s.occ[id] <= c-r-1
}

// PathAdmitsPrimary reports whether every link of the path admits a primary
// call, and if not, the first blocking link (the paper's loss-attribution
// convention: a call is lost at the link where it is first blocked).
func (s *State) PathAdmitsPrimary(p paths.Path) (bool, graph.LinkID) {
	for _, id := range p.Links {
		if !s.AdmitsPrimary(id) {
			return false, id
		}
	}
	return true, graph.InvalidLink
}

// PathAdmitsAlternate reports whether every link of the path admits an
// alternate call under the per-link protection levels r (indexed by LinkID;
// nil means no protection anywhere, i.e. uncontrolled alternate routing).
// Links beyond the end of r — a topology grown after the scheme that
// derived r — carry no protection (r = 0): a short slice must degrade
// gracefully, not panic.
func (s *State) PathAdmitsAlternate(p paths.Path, r []int) (bool, graph.LinkID) {
	for _, id := range p.Links {
		prot := 0
		if uint(id) < uint(len(r)) {
			prot = r[id]
		}
		if !s.AdmitsAlternate(id, prot) {
			return false, id
		}
	}
	return true, graph.InvalidLink
}

// Occupy books one call on every link of the path. It panics on overbooking
// (a link already at capacity) — policies must have verified admission
// first — but deliberately permits booking a link that has gone down since
// the admission decision: with dynamic failures (Config.Failures) or
// signaling latency (RunSignaling) a link can fail between admission and
// occupation, and the defined behaviour is that the booking succeeds and
// the call is then torn down by the failure machinery rather than crashing
// the run.
func (s *State) Occupy(p paths.Path) {
	for _, id := range p.Links {
		if s.occ[id] >= s.links[id].Capacity {
			panic(fmt.Errorf("sim: overbooking link %d", id))
		}
		s.occ[id]++
	}
}

// Release frees one call from every link of the path. Calls torn down by a
// link failure are released exactly once, by the failure machinery at the
// failure epoch (their scheduled departure is cancelled), so Release never
// observes a failure-torn call twice; releasing a down link is legal and
// keeps its occupancy accounting consistent for the eventual repair.
func (s *State) Release(p paths.Path) {
	for _, id := range p.Links {
		if s.occ[id] <= 0 {
			idleRelease(id)
		}
		s.occ[id]--
	}
}

// ErrReleaseIdle is returned by TryRelease when a path would release a
// link with no calls in progress — in a live daemon that means a client
// double-released (or released a call it never admitted), which must be
// reported, not fatal.
var ErrReleaseIdle = errors.New("sim: releasing idle link")

// TryRelease frees one call from every link of the path, refusing instead
// of panicking when any link is already idle. On refusal the state is left
// exactly as it was — links decremented before the offending one are
// re-incremented — so a malformed release from an untrusted client cannot
// skew occupancy accounting. The simulator's own event loops keep using
// Release: there a double-release is a bug worth crashing on; here it is
// input to be rejected. Only the ctrl ingest path should call this.
func (s *State) TryRelease(p paths.Path) error {
	for i, id := range p.Links {
		if uint(id) >= uint(len(s.occ)) {
			s.undoRelease(p.Links[:i])
			return fmt.Errorf("%w: link %d out of range", ErrReleaseIdle, id)
		}
		if s.occ[id] <= 0 {
			s.undoRelease(p.Links[:i])
			return fmt.Errorf("%w: link %d", ErrReleaseIdle, id)
		}
		s.occ[id]--
	}
	return nil
}

// undoRelease re-books the prefix of a path that TryRelease had already
// decremented before hitting an idle link, restoring the pre-call state.
func (s *State) undoRelease(links []graph.LinkID) {
	for _, id := range links {
		s.occ[id]++
	}
}

// OccupyLink and ReleaseLink book/free a single link; the two-phase
// signaling runner uses them for hop-by-hop booking. Like Occupy, only
// overbooking panics: a link that failed after admission may still be
// booked.
func (s *State) OccupyLink(id graph.LinkID) {
	if s.occ[id] >= s.links[id].Capacity {
		panic(fmt.Errorf("sim: overbooking link %d", id))
	}
	s.occ[id]++
}

// ReleaseLink frees one call from a single link.
func (s *State) ReleaseLink(id graph.LinkID) {
	if s.occ[id] <= 0 {
		idleRelease(id)
	}
	s.occ[id]--
}

// idleRelease reports a release of a link that carries no call, which
// only a corrupted departure queue can ask for. It stays out of line so
// that boxing id for the error is no escape of the hot loops that call it.
//
//go:noinline
func idleRelease(id graph.LinkID) {
	panic(fmt.Errorf("sim: releasing idle link %d", id))
}

// TotalOccupancy returns the sum of link occupancies (each call counts once
// per hop).
func (s *State) TotalOccupancy() int {
	t := 0
	for _, o := range s.occ {
		t += o
	}
	return t
}
