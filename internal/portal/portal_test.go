package portal

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

func TestParallelogramXPortals(t *testing.T) {
	s := shapes.Parallelogram(5, 3)
	r := amoebot.WholeRegion(s)
	p := Compute(r, amoebot.AxisX)
	if p.Len() != 3 {
		t.Fatalf("x-portals = %d, want 3 (one per row)", p.Len())
	}
	for id := int32(0); id < 3; id++ {
		if len(p.NodesOf(id)) != 5 {
			t.Fatalf("portal %d has %d nodes", id, len(p.NodesOf(id)))
		}
		rep := p.Rep(id)
		// Representative must be the negative-most (westernmost) node.
		for _, u := range p.NodesOf(id) {
			if amoebot.AxisX.Along(s.Coord(u)) < amoebot.AxisX.Along(s.Coord(rep)) {
				t.Fatalf("portal %d: rep is not negative-most", id)
			}
		}
	}
	if !p.IsPortalGraphTree() {
		t.Fatal("parallelogram x-portal graph not a tree")
	}
}

func TestPortalIDCoversRegionOnly(t *testing.T) {
	s := shapes.Parallelogram(4, 4)
	// Region = bottom two rows only.
	var nodes []int32
	for i := int32(0); i < int32(s.N()); i++ {
		if s.Coord(i).Z < 2 {
			nodes = append(nodes, i)
		}
	}
	r := amoebot.NewRegion(s, nodes)
	p := Compute(r, amoebot.AxisX)
	if p.Len() != 2 {
		t.Fatalf("portals = %d, want 2", p.Len())
	}
	for i := int32(0); i < int32(s.N()); i++ {
		if r.Contains(i) != (p.ID[i] >= 0) {
			t.Fatalf("ID coverage wrong at node %d", i)
		}
	}
}

func TestCombXPortalsSplitRows(t *testing.T) {
	// The comb's tooth rows contain several disjoint runs: more than one
	// portal per row.
	s := shapes.Comb(3, 4)
	p := Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	if p.Len() != 1+3*4 {
		t.Fatalf("portals = %d, want %d (spine + one per tooth row)", p.Len(), 1+3*4)
	}
	if !p.IsPortalGraphTree() {
		t.Fatal("comb x-portal graph not a tree")
	}
}

// TestLemma9PortalGraphsAreTrees checks that all three portal graphs of
// random hole-free structures are trees, and that the implicit portal tree
// is a spanning tree of the region (validated by ImplicitTree).
func TestLemma9PortalGraphsAreTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(250))
		r := amoebot.WholeRegion(s)
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(r, axis)
			if !p.IsPortalGraphTree() {
				t.Fatalf("trial %d axis %v: portal graph not a tree (n=%d)", trial, axis, s.N())
			}
			tree, _ := p.WholeView().ImplicitTree() // panics unless a tree
			if tree.Len() != s.N() {
				t.Fatalf("implicit tree does not span the structure")
			}
			// Adjacency must be symmetric with consistent connectors.
			for a := int32(0); a < int32(p.Len()); a++ {
				for _, b := range p.Nbr[a] {
					if !p.Adjacent(b, a) {
						t.Fatalf("asymmetric portal adjacency %d/%d", a, b)
					}
					ca, cb := p.Connector(a, b), p.Connector(b, a)
					if p.ID[ca] != a || p.ID[cb] != b {
						t.Fatalf("connector in wrong portal")
					}
					if _, ok := amoebot.DirectionBetween(s.Coord(ca), s.Coord(cb)); !ok {
						t.Fatalf("connectors of %d/%d not adjacent", a, b)
					}
				}
			}
		}
	}
}

// bfsDist computes single-source graph distances within the region.
func bfsDist(r *amoebot.Region, src int32) map[int32]int {
	dist := map[int32]int{src: 0}
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v := r.Neighbor(u, d); v != amoebot.None {
				if _, ok := dist[v]; !ok {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return dist
}

// portalTreeDist computes distances between portals in the portal graph.
func portalTreeDist(p *Portals, src int32) map[int32]int {
	dist := map[int32]int{src: 0}
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range p.Nbr[u] {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestLemma11DistanceIdentity checks 2·dist(u,v) = Σ_d dist_d(u,v) on
// random hole-free structures.
func TestLemma11DistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 12; trial++ {
		s := shapes.RandomBlob(rng, 20+rng.Intn(150))
		r := amoebot.WholeRegion(s)
		var ps [amoebot.NumAxes]*Portals
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			ps[axis] = Compute(r, axis)
		}
		for probe := 0; probe < 8; probe++ {
			u := int32(rng.Intn(s.N()))
			gd := bfsDist(r, u)
			var pd [amoebot.NumAxes]map[int32]int
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				pd[axis] = portalTreeDist(ps[axis], ps[axis].ID[u])
			}
			for v := int32(0); v < int32(s.N()); v++ {
				sum := 0
				for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
					sum += pd[axis][ps[axis].ID[v]]
				}
				if 2*gd[v] != sum {
					t.Fatalf("trial %d: 2·dist(%d,%d)=%d but portal sum=%d",
						trial, u, v, 2*gd[v], sum)
				}
			}
		}
	}
}

func TestIsTreeEdgeMatchesPaperRuleOnX(t *testing.T) {
	// For x-portals: E/W always; NW iff no W; NE iff no NW; SW iff no W;
	// SE iff no SW (paper §2.3 discussion of Definition 12).
	s := shapes.RandomBlob(rand.New(rand.NewSource(55)), 120)
	r := amoebot.WholeRegion(s)
	p := Compute(r, amoebot.AxisX)
	for _, u := range r.Nodes() {
		has := func(d amoebot.Direction) bool { return r.Neighbor(u, d) != amoebot.None }
		want := map[amoebot.Direction]bool{
			amoebot.DirE:  has(amoebot.DirE),
			amoebot.DirW:  has(amoebot.DirW),
			amoebot.DirNW: has(amoebot.DirNW) && !has(amoebot.DirW),
			amoebot.DirNE: has(amoebot.DirNE) && !has(amoebot.DirNW),
			amoebot.DirSW: has(amoebot.DirSW) && !has(amoebot.DirW),
			amoebot.DirSE: has(amoebot.DirSE) && !has(amoebot.DirSW),
		}
		for d, w := range want {
			if p.IsTreeEdge(u, d) != w {
				t.Fatalf("node %d dir %v: IsTreeEdge=%v want %v", u, d, p.IsTreeEdge(u, d), w)
			}
		}
	}
}

func TestSubViewRestriction(t *testing.T) {
	s := shapes.Parallelogram(4, 3)
	p := Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	v := p.SubView([]int32{1, 0})
	if !reflect.DeepEqual(v.IDs, []int32{0, 1}) {
		t.Fatalf("subview ids = %v", v.IDs)
	}
	if v.Contains(2) {
		t.Fatal("subview contains excluded portal")
	}
	if tree, nodes := v.ImplicitTree(); tree.Len() != 8 || len(nodes) != 8 {
		t.Fatalf("subview tree size = %d over %d nodes", tree.Len(), len(nodes))
	}
}

// treeEdgesByScan lists the decomposition's crossing tree edges by the
// literal rule of Definition 12: every region amoebot u and crossing
// direction d with IsTreeEdge(u, d), as (ID[u], ID[u+d], u), sorted.
func treeEdgesByScan(p *Portals) [][3]int32 {
	var out [][3]int32
	for _, u := range p.Region.Nodes() {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if d.Axis() != p.Axis && p.IsTreeEdge(u, d) {
				out = append(out, [3]int32{p.ID[u], p.ID[p.Region.Neighbor(u, d)], u})
			}
		}
	}
	slices.SortFunc(out, func(a, b [3]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[2], b[2]))
	})
	return out
}

// requireTreeEdgeRule checks Nbr and Connector against treeEdgesByScan:
// each directed adjacent pair has exactly the one crossing tree edge the
// scan finds.
func requireTreeEdgeRule(t *testing.T, p *Portals, ctx string) {
	t.Helper()
	var got [][3]int32
	for id := int32(0); id < int32(p.Len()); id++ {
		for _, to := range p.Nbr[id] {
			got = append(got, [3]int32{id, to, p.Connector(id, to)})
		}
	}
	if want := treeEdgesByScan(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: crossing edges from the representatives\n%v\ndiffer from the scan\n%v", ctx, got, want)
	}
}

// TestCrossingEdgesMatchTreeEdgeRule: the crossing tree edges Compute
// derives from the portals' representatives are exactly those the local
// rule selects at every amoebot, on hole-free and holed blobs, the comb,
// hop balls and random (often disconnected) sub-regions, along every axis.
func TestCrossingEdgesMatchTreeEdgeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 12; trial++ {
		structures := []*amoebot.Structure{
			shapes.RandomBlob(rng, 30+rng.Intn(250)),
			shapes.Comb(3, 4),
			shapes.RandomHoledBlob(rng, 200, 3),
		}
		for _, s := range structures {
			regions := []*amoebot.Region{
				amoebot.WholeRegion(s),
				ballRegion(s, int32(rng.Intn(s.N())), 1+rng.Intn(5)),
				amoebot.NewRegion(s, shapes.RandomSubset(rng, s, 1+rng.Intn(s.N()))),
			}
			for _, r := range regions {
				for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
					requireTreeEdgeRule(t, Compute(r, axis), fmt.Sprintf("trial %d, %v of %d amoebots, axis %v", trial, r, s.N(), axis))
				}
			}
		}
	}
}
