package portal

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/ett"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
)

// The main primitive tests run on x-portals; these repeat the core checks
// on the other two axes (the constructions must be fully axis-symmetric).

func TestRootPruneAllAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 15; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(amoebot.WholeRegion(s), axis)
			inQ := make([]bool, p.Len())
			sizeQ := 0
			for i := range inQ {
				if rng.Intn(3) == 0 {
					inQ[i] = true
					sizeQ++
				}
			}
			root := int32(rng.Intn(p.Len()))
			var clock sim.Clock
			rp := RootPrune(&clock, p.WholeView(), root, inQ)
			if rp.QSize != uint64(sizeQ) {
				t.Fatalf("trial %d axis %v: QSize %d want %d", trial, axis, rp.QSize, sizeQ)
			}
			parent, subQ := bruteRootedPortals(p, root, inQ)
			for id := int32(0); id < int32(p.Len()); id++ {
				if rp.InVQ[id] != (subQ[id] > 0) {
					t.Fatalf("trial %d axis %v: InVQ[%d] wrong", trial, axis, id)
				}
				if subQ[id] > 0 && id != root && rp.Parent[id] != parent[id] {
					t.Fatalf("trial %d axis %v: parent[%d] wrong", trial, axis, id)
				}
			}
		}
	}
}

func TestElectAndCentroidsAllAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	for trial := 0; trial < 10; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(120))
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(amoebot.WholeRegion(s), axis)
			v := p.WholeView()
			inQ := make([]bool, p.Len())
			any := false
			for i := range inQ {
				if rng.Intn(2) == 0 {
					inQ[i] = true
					any = true
				}
			}
			root := int32(rng.Intn(p.Len()))
			var clock sim.Clock
			elected := ElectPortal(&clock, v, root, inQ)
			if any && (elected < 0 || !inQ[elected]) {
				t.Fatalf("trial %d axis %v: elected %d", trial, axis, elected)
			}
			got := Centroids(&clock, v, root, inQ)
			want := brutePortalCentroids(p, v, inQ)
			for id := 0; id < p.Len(); id++ {
				if got.IsCentroid[id] != want[id] {
					t.Fatalf("trial %d axis %v: centroid[%d] wrong", trial, axis, id)
				}
			}
		}
	}
}

// TestLemma13Separation: removing a portal separates the structure such
// that every remaining component is adjacent to the portal from exactly one
// side (the property the propagation algorithm's side classification relies
// on).
func TestLemma13Separation(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(250))
		region := amoebot.WholeRegion(s)
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			p := Compute(region, axis)
			pid := int32(rng.Intn(p.Len()))
			inP := map[int32]bool{}
			for _, u := range p.NodesOf(pid) {
				inP[u] = true
			}
			rest := region.Filter(func(i int32) bool { return !inP[i] })
			if len(rest) == 0 {
				continue
			}
			for _, comp := range amoebot.NewRegion(s, rest).Components() {
				sides := map[amoebot.Side]bool{}
				adjacent := false
				for _, u := range p.NodesOf(pid) {
					for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
						if d.Axis() == axis {
							continue
						}
						v := region.Neighbor(u, d)
						if v == amoebot.None || !comp.Contains(v) {
							continue
						}
						side, _ := axis.SideOf(d)
						sides[side] = true
						adjacent = true
					}
				}
				if !adjacent {
					t.Fatalf("trial %d axis %v: component not adjacent to removed portal", trial, axis)
				}
				if len(sides) != 1 {
					t.Fatalf("trial %d axis %v: component touches portal from %d sides", trial, axis, len(sides))
				}
			}
		}
	}
}

// TestSubViewOnSubtrees: decomposition-style sub-views must keep the
// implicit tree consistent (connectors, reps, crossing ordinals).
func TestSubViewOnSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	s := shapes.RandomBlob(rng, 300)
	p := Compute(amoebot.WholeRegion(s), amoebot.AxisX)
	if p.Len() < 4 {
		t.Skip("blob too flat")
	}
	// Take the subtree hanging off portal 0's first neighbor.
	root := int32(0)
	start := p.Nbr[root][0]
	seen := map[int32]bool{root: true, start: true}
	ids := []int32{start}
	stack := []int32{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range p.Nbr[u] {
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
				stack = append(stack, v)
			}
		}
	}
	v := p.SubView(ids)
	rows, nodes := v.ImplicitTree()
	tree := ett.MustTree(rows)
	if tree.Len() != len(nodes) {
		t.Fatal("subview tree size mismatch")
	}
	for _, a := range ids {
		for _, b := range p.Nbr[a] {
			if !v.Contains(b) {
				continue
			}
			lu, ord := crossingOrdinal(tree, nodes, p.Connector(a, b), p.Connector(b, a))
			if nodes[tree.Neighbors[lu][ord]] != p.Connector(b, a) {
				t.Fatal("crossing ordinal inconsistent in subview")
			}
		}
	}
}

// crossingOrdinal returns, for the crossing edge between the connectors u
// and w of two adjacent view portals, the index of u in the view's node
// list and the neighbor ordinal of the edge within its implicit tree.
func crossingOrdinal(tree *ett.Tree, nodes []int32, u, w int32) (local int32, ord int) {
	lu, _ := slices.BinarySearch(nodes, u)
	lw, _ := slices.BinarySearch(nodes, w)
	for j, x := range tree.Neighbors[lu] {
		if x == int32(lw) {
			return int32(lu), j
		}
	}
	panic("portal: crossing edge missing from view tree")
}

// TestPrimitivesMatchPortalGraphOracle checks Lemma 32 on whole views and
// split-off sub-views along every axis: RootPrune and Centroids over the
// implicit tree must agree with the tree primitives run on the view's
// portal graph itself (view portals as nodes, P.Nbr within the view as
// edges) — the same |Q|, V_Q, parents and centroids, and, on views of two
// or more portals, the tree primitives' ETT rounds (a function of |Q|
// alone) plus Lemma 33's two beep rounds and Lemma 36's final round.
func TestPrimitivesMatchPortalGraphOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	for trial := 0; trial < 30; trial++ {
		s := shapes.RandomBlob(rng, 2+rng.Intn(150))
		p := Compute(amoebot.WholeRegion(s), amoebot.Axis(trial%int(amoebot.NumAxes)))
		views := []*View{p.WholeView()}
		for _, c := range splitPortalTree(views[0], int32(rng.Intn(p.Len()))) {
			views = append(views, p.SubView(c.ids))
		}
		for _, v := range views {
			local := make(map[int32]int32, len(v.IDs))
			for li, id := range v.IDs {
				local[id] = int32(li)
			}
			nbrs := make([][]int32, len(v.IDs))
			q := make([]bool, len(v.IDs))
			inQ := make([]bool, p.Len())
			for li, id := range v.IDs {
				for _, w := range p.Nbr[id] {
					if v.Contains(w) {
						nbrs[li] = append(nbrs[li], local[w])
					}
				}
				inQ[id] = rng.Intn(3) == 0
				q[li] = inQ[id]
			}
			graph := ett.MustTree(nbrs)
			root := v.IDs[rng.Intn(len(v.IDs))]
			var pc, tc sim.Clock
			got := Centroids(&pc, v, root, inQ)
			want := treeprim.Centroids(&tc, graph, local[root], q)
			if got.RP.QSize != want.RP.QSize {
				t.Fatalf("trial %d: QSize %d, portal graph %d", trial, got.RP.QSize, want.RP.QSize)
			}
			for li, id := range v.IDs {
				wantParent := int32(-1)
				if pl := want.RP.Parent[li]; pl >= 0 {
					wantParent = v.IDs[pl]
				}
				if got.RP.InVQ[id] != want.RP.InVQ[li] || got.RP.Parent[id] != wantParent ||
					got.IsCentroid[id] != want.IsCentroid[li] {
					t.Fatalf("trial %d: portal %d differs from the portal-graph primitives", trial, id)
				}
			}
			var rc sim.Clock
			if rp := RootPrune(&rc, v, root, inQ); !reflect.DeepEqual(rp, got.RP) {
				t.Fatalf("trial %d: RootPrune differs from Centroids' root-and-prune", trial)
			}
			if len(v.IDs) >= 2 && pc.Rounds() != tc.Rounds()+3 {
				t.Fatalf("trial %d: Centroids %d rounds, portal graph %d + 3", trial, pc.Rounds(), tc.Rounds())
			}
		}
	}
}
