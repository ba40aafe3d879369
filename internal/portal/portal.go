// Package portal implements portals, portal graphs and implicit portal
// trees on the triangular grid (paper §2.3, Definition 12), together with
// the portal-tree versions of the tree primitives (§3.5, Lemmas 32–37).
//
// A d-portal is a maximal run of amoebots along axis d. For hole-free
// structures every portal graph is a tree (Lemma 9), and distances satisfy
// 2·dist(u,v) = dist_x(u,v) + dist_y(u,v) + dist_z(u,v) (Lemma 11). The
// amoebots only access the implicit portal tree T: the axis-parallel edges
// plus, between each pair of adjacent portals, the unique crossing edge
// selected by a local rule (the "westernmost" edge for x-portals).
//
// The primitives run on a View, a connected set of portal ids, and never
// build T: root-and-prune and Q-centroids read portal-subtree counts off
// the portal graph and charge the ETT with sim.Clock's closed forms, and
// the election walks T's Euler tour edge by edge with the local rule
// (DESIGN.md §2). View.ImplicitTree lists T's adjacency rows for the oracle
// tests, which wrap them in an ett.Tree and check the primitives against
// the executions of internal/treeprim and internal/ett on it; this package
// imports neither.
package portal

import (
	"fmt"
	"slices"

	"spforest/amoebot"
	"spforest/internal/dense"
)

// Portals is the portal decomposition of a region along one axis.
type Portals struct {
	Axis   amoebot.Axis
	Region *amoebot.Region

	// ID maps each structure node to its portal id (-1 outside the region).
	// It is a recycled column (see Release).
	ID []int32
	// Nbr lists each portal's adjacent portals (ascending ids). The lists
	// share one backing array.
	Nbr [][]int32

	// Portal membership in CSR layout: portal id's amoebots are
	// nodes[off[id]:off[id+1]], in ascending axis order; the first entry is
	// the negative-most amoebot, the portal's representative. One flat
	// array instead of a slice header + allocation per portal — a
	// million-amoebot structure has hundreds of thousands of single-node
	// portals, and the AoS layout paid 24 bytes of header and a cache miss
	// each. An x-portal is a run of consecutive indices, so the x
	// decomposition's nodes is the region's own node list.
	nodes []int32
	off   []int32

	// The crossing tree edges, parallel to the concatenated Nbr lists: the
	// edge from portal id to Nbr[id][j] leaves the connector amoebot
	// via[nbrOff[id]+j] of id.
	via    []int32
	nbrOff []int32
}

// idColumns recycles ID columns: a sub-region's decomposition writes and
// releases only its own nodes' entries, not the structure's n.
var idColumns = dense.NewColumns(-1)

// Compute builds the portal decomposition of the region along the axis.
func Compute(region *amoebot.Region, axis amoebot.Axis) *Portals {
	return compute(region, axis, idColumns.Take(region.Structure().N()))
}

// compute builds the decomposition into the ID column ids, which must
// hold -1 at every node outside the region.
func compute(region *amoebot.Region, axis amoebot.Axis, ids []int32) *Portals {
	p := &Portals{Axis: axis, Region: region, ID: ids}
	if axis == amoebot.AxisX {
		// x-portals are the maximal gap-free runs of the rows (paper §2.3),
		// and in canonical order a run is consecutive indices: a run starts
		// wherever the west neighbor, index u-1, is not the region's
		// previous node.
		s := region.Structure()
		p.nodes = region.Nodes()
		for k, u := range p.nodes {
			if k == 0 || p.nodes[k-1] != u-1 || s.Neighbor(u, amoebot.DirW) == amoebot.None {
				p.off = append(p.off, int32(k))
			}
			ids[u] = int32(len(p.off) - 1)
		}
		p.off = append(p.off, int32(len(p.nodes)))
		p.link()
		return p
	}
	p.nodes, p.off = make([]int32, 0, region.Len()), []int32{0}
	pos, neg := axis.Positive(), axis.Negative()
	for _, u := range region.Nodes() {
		if region.Neighbor(u, neg) != amoebot.None {
			continue // not the start of a run
		}
		id := int32(len(p.off)) - 1
		for v := u; v != amoebot.None; v = region.Neighbor(v, pos) {
			p.ID[v] = id
			p.nodes = append(p.nodes, v)
		}
		p.off = append(p.off, int32(len(p.nodes)))
	}
	p.link()
	return p
}

// Release hands the ID column back to later Compute calls, resetting the
// region's nodes (the CSR nodes), and sets ID to nil so any later use
// panics. Call it only on a decomposition nothing else holds: never on a
// memoized or patched one.
func (p *Portals) Release() {
	idColumns.Put(p.ID, p.nodes)
	p.ID = nil
}

// link derives the portal adjacency and its crossing tree edges from the
// portals' representatives. A crossing edge u→u+c belongs to the implicit
// tree only if u is its portal's negative-most amoebot, and u→u+c' (c' =
// c + positive) only if u has no c-neighbor, which makes u+c' the
// negative-most amoebot of its portal, its negative neighbor being u+c
// (IsTreeEdge). So every crossing tree edge has a representative at one
// end: per representative s and side, s→s+c and s−c'→s wherever the far
// end is in the region, O(1) probes per portal. The edges are counted per
// source portal, placed, and each portal's list sorted by neighbor.
func (p *Portals) link() {
	r := p.Region
	var dirs [amoebot.NumSides][2]amoebot.Direction // c and -c' per side
	for side := range dirs {
		c, cp := p.Axis.CrossPair(amoebot.Side(side))
		dirs[side] = [2]amoebot.Direction{c, cp.Opposite()}
	}
	// A portal tree has 2(Len-1) directed edges.
	from := make([]int32, 0, 2*p.Len())
	edges := make([]uint64, 0, 2*p.Len()) // to<<32 | connector
	for id := int32(0); id < int32(p.Len()); id++ {
		s := p.Rep(id)
		for _, d := range dirs {
			if t := r.Neighbor(s, d[0]); t != amoebot.None {
				from, edges = append(from, id), append(edges, uint64(p.ID[t])<<32|uint64(s))
			}
			if u := r.Neighbor(s, d[1]); u != amoebot.None {
				from, edges = append(from, p.ID[u]), append(edges, uint64(id)<<32|uint64(u))
			}
		}
	}
	// Counting: off[id] first counts id's edges, then ends its range, and
	// placing by decrement leaves it at the range's start.
	off := make([]int32, p.Len()+1)
	for _, f := range from {
		off[f]++
	}
	for id := 1; id < len(off); id++ {
		off[id] += off[id-1]
	}
	keys := make([]uint64, len(edges))
	for k, f := range from {
		off[f]--
		keys[off[f]] = edges[k]
	}
	adj := make([]int32, len(keys))
	p.via = make([]int32, len(keys))
	p.Nbr = make([][]int32, p.Len())
	for id := range p.Nbr {
		lo, hi := off[id], off[id+1]
		slices.Sort(keys[lo:hi])
		for k := lo; k < hi; k++ {
			adj[k], p.via[k] = int32(keys[k]>>32), int32(uint32(keys[k]))
			if k > lo && adj[k] == adj[k-1] {
				panic(fmt.Sprintf("portal: two crossing tree edges between portals %d and %d", id, adj[k]))
			}
		}
		p.Nbr[id] = adj[lo:hi:hi]
	}
	p.nbrOff = off
}

// Len returns the number of portals.
func (p *Portals) Len() int { return len(p.off) - 1 }

// NodesOf returns portal id's amoebots in ascending axis order (a view
// into the shared CSR array; callers must not modify it).
func (p *Portals) NodesOf(id int32) []int32 { return p.nodes[p.off[id]:p.off[id+1]] }

// Rep returns the representative (negative-most amoebot) of the portal.
func (p *Portals) Rep(id int32) int32 { return p.nodes[p.off[id]] }

// Connector returns the amoebot c_{from}(to): the amoebot of portal "from"
// incident to the unique implicit-tree edge towards the adjacent portal
// "to". By construction (Definition 12) it exists and is unique.
func (p *Portals) Connector(from, to int32) int32 {
	j, ok := slices.BinarySearch(p.Nbr[from], to)
	if !ok {
		panic(fmt.Sprintf("portal: portals %d and %d are not adjacent", from, to))
	}
	return p.via[p.nbrOff[from]+int32(j)]
}

// Adjacent reports whether two portals share an implicit-tree edge.
func (p *Portals) Adjacent(a, b int32) bool {
	_, ok := slices.BinarySearch(p.Nbr[a], b)
	return ok
}

// IsTreeEdge reports whether the edge from u in direction d belongs to the
// implicit portal tree (Definition 12). Axis-parallel edges always belong;
// a crossing edge belongs iff u is the negative-most amoebot of its portal
// (for the "minus-ward" crossing direction c), or u has no c-neighbor (for
// the "plus-ward" direction c' = c + positive).
//
// The rule is purely local: u inspects only its own neighborhood.
func (p *Portals) IsTreeEdge(u int32, d amoebot.Direction) bool {
	r := p.Region
	if r.Neighbor(u, d) == amoebot.None {
		return false
	}
	if d.Axis() == p.Axis {
		return true
	}
	side, _ := p.Axis.SideOf(d)
	c, cp := p.Axis.CrossPair(side)
	switch d {
	case c:
		return r.Neighbor(u, p.Axis.Negative()) == amoebot.None
	case cp:
		return r.Neighbor(u, c) == amoebot.None
	default:
		return false
	}
}

// IsPortalGraphTree reports whether the portal graph is a tree (Lemma 9:
// guaranteed for hole-free regions), i.e. connected with Len()-1 adjacent
// pairs.
func (p *Portals) IsPortalGraphTree() bool {
	pairs := 0
	for a, nb := range p.Nbr {
		for _, b := range nb {
			if int32(a) < b {
				pairs++
			}
		}
	}
	if pairs != p.Len()-1 {
		return false
	}
	if p.Len() == 0 {
		return false
	}
	seen := make([]bool, p.Len())
	stack := []int32{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, v := range p.Nbr[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return count == p.Len()
}

// View is a connected sub-set of portals (a subtree of the portal graph)
// on which the §3.5 primitives run. A view is its portal ids: the
// primitives evaluate the implicit portal tree restricted to the view's
// portals locally, through IsTreeEdge and the portal membership of each
// neighbor, and never build it (ImplicitTree lists it for the oracle
// tests).
type View struct {
	P      *Portals
	IDs    []int32 // portal ids in the view, ascending
	inView []bool  // indexed by portal id
}

// WholeView returns the view containing every portal.
func (p *Portals) WholeView() *View {
	v := &View{P: p, IDs: make([]int32, p.Len()), inView: make([]bool, p.Len())}
	for i := range v.IDs {
		v.IDs[i] = int32(i)
		v.inView[i] = true
	}
	return v
}

// SubView returns the view of the given portals, which must induce a
// connected subtree of the portal graph.
func (p *Portals) SubView(ids []int32) *View {
	v := &View{P: p, IDs: slices.Clone(ids), inView: make([]bool, p.Len())}
	slices.Sort(v.IDs)
	for _, id := range v.IDs {
		v.inView[id] = true
	}
	return v
}

// Contains reports whether the portal belongs to the view.
func (v *View) Contains(id int32) bool { return v.inView[id] }

// singleAmoebot reports whether the view is one portal of one amoebot, the
// degenerate view whose implicit tree has no edge.
func (v *View) singleAmoebot() bool {
	return len(v.IDs) == 1 && len(v.P.NodesOf(v.IDs[0])) == 1
}

// treeEdge reports whether the edge from u in direction d belongs to the
// view's implicit tree: an implicit portal tree edge whose far end lies in
// one of the view's portals.
func (v *View) treeEdge(u int32, d amoebot.Direction) bool {
	return v.P.IsTreeEdge(u, d) && v.inView[v.P.ID[v.P.Region.Neighbor(u, d)]]
}

// ImplicitTree lists the view's implicit tree for the oracle tests: nodes
// lists the view's amoebots in ascending structure order, and row i holds
// node i's tree neighbors as indices into nodes, in counterclockwise
// direction order from E. ett.MustTree(rows) validates the rows as a tree.
// Every call builds afresh; the primitives never call it.
func (v *View) ImplicitTree() (rows [][]int32, nodes []int32) {
	for _, id := range v.IDs {
		nodes = append(nodes, v.P.NodesOf(id)...)
	}
	slices.Sort(nodes)
	rows = make([][]int32, len(nodes))
	for i, u := range nodes {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v.treeEdge(u, d) {
				j, _ := slices.BinarySearch(nodes, v.P.Region.Neighbor(u, d))
				rows[i] = append(rows[i], int32(j))
			}
		}
	}
	return rows, nodes
}
