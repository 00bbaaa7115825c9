// Package graph provides the directed capacitated multigraph substrate used
// by the routing and simulation layers: nodes, unidirectional links with
// integer call capacities, adjacency queries, and cut enumeration.
//
// Links are directed because the paper models each physical trunk as "a pair
// of unidirectional links transmitting in opposite directions" (§4.2.1), each
// with its own capacity, primary load, and state-protection level.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node; nodes are dense integers 0..N−1.
type NodeID int32

// LinkID identifies a directed link; links are dense integers 0..L−1 in
// insertion order.
type LinkID int32

// Invalid sentinels returned by lookups that find nothing.
const (
	InvalidNode NodeID = -1
	InvalidLink LinkID = -1
)

// Link is one unidirectional transmission facility.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is the number of unit-bandwidth calls the link can carry
	// simultaneously (C^k in the paper).
	Capacity int
	// Down marks a failed link; down links carry no traffic and are excluded
	// from all path computations (§4 "Link failures").
	Down bool
}

// Graph is a directed graph with named nodes and capacitated links.
// The zero value is an empty graph ready for use.
type Graph struct {
	nodeNames []string
	links     []Link
	out       [][]LinkID // outgoing link IDs per node
	in        [][]LinkID // incoming link IDs per node
	byPair    map[[2]NodeID]LinkID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byPair: make(map[[2]NodeID]LinkID)}
}

// AddNode appends a node with the given display name and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.nodeNames))
	g.nodeNames = append(g.nodeNames, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddNodes appends n anonymous nodes named "n0".."n<n-1>" offset by the
// current count and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.nodeNames))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", int(first)+i))
	}
	return first
}

// AddLink adds a directed link from→to with the given capacity and returns
// its ID. Adding a second link for an existing ordered pair is an error
// (the paper's networks have at most one facility per direction).
func (g *Graph) AddLink(from, to NodeID, capacity int) (LinkID, error) {
	if err := g.checkNode(from); err != nil {
		return InvalidLink, err
	}
	if err := g.checkNode(to); err != nil {
		return InvalidLink, err
	}
	if from == to {
		return InvalidLink, fmt.Errorf("graph: self-loop at node %d", from)
	}
	if capacity < 0 {
		return InvalidLink, fmt.Errorf("graph: negative capacity %d", capacity)
	}
	key := [2]NodeID{from, to}
	if g.byPair == nil {
		g.byPair = make(map[[2]NodeID]LinkID)
	}
	if _, dup := g.byPair[key]; dup {
		return InvalidLink, fmt.Errorf("graph: duplicate link %d→%d", from, to)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.byPair[key] = id
	return id, nil
}

// MustAddLink is AddLink panicking on error, for static topology literals.
func (g *Graph) MustAddLink(from, to NodeID, capacity int) LinkID {
	id, err := g.AddLink(from, to, capacity)
	if err != nil {
		panic(err)
	}
	return id
}

// AddDuplex adds a pair of opposite unidirectional links with equal capacity
// and returns both IDs (forward a→b first).
func (g *Graph) AddDuplex(a, b NodeID, capacity int) (ab, ba LinkID, err error) {
	ab, err = g.AddLink(a, b, capacity)
	if err != nil {
		return InvalidLink, InvalidLink, err
	}
	ba, err = g.AddLink(b, a, capacity)
	if err != nil {
		return InvalidLink, InvalidLink, err
	}
	return ab, ba, nil
}

func (g *Graph) checkNode(n NodeID) error {
	if n < 0 || int(n) >= len(g.nodeNames) {
		return fmt.Errorf("graph: node %d out of range [0,%d)", n, len(g.nodeNames))
	}
	return nil
}

// NumNodes returns the node count N.
func (g *Graph) NumNodes() int { return len(g.nodeNames) }

// NumLinks returns the directed link count L (including down links).
func (g *Graph) NumLinks() int { return len(g.links) }

// NodeName returns the display name of n.
func (g *Graph) NodeName(n NodeID) string {
	if g.checkNode(n) != nil {
		return fmt.Sprintf("<invalid %d>", n)
	}
	return g.nodeNames[n]
}

// Link returns a copy of the link record for id.
func (g *Graph) Link(id LinkID) Link {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Errorf("graph: link %d out of range [0,%d)", id, len(g.links)))
	}
	return g.links[id]
}

// LinkView returns the graph's live link records in ID order, shared with
// the graph itself: callers MUST treat the slice as read-only. It exists for
// hot paths (the simulator's per-hop admission checks) that cannot afford a
// record copy per access. The view reflects failure-state updates made via
// SetDown, but not links added after it was taken.
func (g *Graph) LinkView() []Link { return g.links }

// LinkBetween returns the link from→to, or InvalidLink if none exists.
// Down links are still returned; callers filter on Up state as needed.
func (g *Graph) LinkBetween(from, to NodeID) LinkID {
	id, ok := g.byPair[[2]NodeID{from, to}]
	if !ok {
		return InvalidLink
	}
	return id
}

// Out returns the IDs of links leaving n (including down links). The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Out(n NodeID) []LinkID {
	if g.checkNode(n) != nil {
		return nil
	}
	return g.out[n]
}

// In returns the IDs of links entering n (including down links). The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) In(n NodeID) []LinkID {
	if g.checkNode(n) != nil {
		return nil
	}
	return g.in[n]
}

// SetDown marks a link (not) failed.
func (g *Graph) SetDown(id LinkID, down bool) {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Errorf("graph: link %d out of range", id))
	}
	g.links[id].Down = down
}

// SetDuplexDown fails (or restores) both directions between a and b.
// It returns an error if either direction does not exist.
func (g *Graph) SetDuplexDown(a, b NodeID, down bool) error {
	ab := g.LinkBetween(a, b)
	ba := g.LinkBetween(b, a)
	if ab == InvalidLink || ba == InvalidLink {
		return fmt.Errorf("graph: no duplex link %d↔%d", a, b)
	}
	g.SetDown(ab, down)
	g.SetDown(ba, down)
	return nil
}

// Up reports whether the link exists and is not failed.
func (g *Graph) Up(id LinkID) bool {
	return id >= 0 && int(id) < len(g.links) && !g.links[id].Down
}

// Neighbors returns the distinct nodes reachable from n over up links,
// in ascending order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	var out []NodeID
	for _, id := range g.Out(n) {
		if l := g.links[id]; !l.Down {
			out = append(out, l.To)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Links returns a copy of all link records in ID order.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Clone returns a deep copy of the graph (topology and failure state).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodeNames: append([]string(nil), g.nodeNames...),
		links:     append([]Link(nil), g.links...),
		out:       make([][]LinkID, len(g.out)),
		in:        make([][]LinkID, len(g.in)),
		byPair:    make(map[[2]NodeID]LinkID, len(g.byPair)),
	}
	for i := range g.out {
		c.out[i] = append([]LinkID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]LinkID(nil), g.in[i]...)
	}
	for k, v := range g.byPair {
		c.byPair[k] = v
	}
	return c
}

// Connected reports whether every node can reach every other node over up
// links (strong connectivity), which the routing layer requires.
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	reach := func(start NodeID, adj func(NodeID) []LinkID, end func(Link) NodeID) int {
		seen := make([]bool, n)
		stack := []NodeID{start}
		seen[start] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, id := range adj(v) {
				l := g.links[id]
				if l.Down {
					continue
				}
				w := end(l)
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count
	}
	fwd := reach(0, g.Out, func(l Link) NodeID { return l.To })
	bwd := reach(0, g.In, func(l Link) NodeID { return l.From })
	return fwd == n && bwd == n
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, links: %d}", g.NumNodes(), g.NumLinks())
}
