package treeprim

import (
	"testing"

	"spforest/internal/ett"
	"spforest/internal/sim"
)

// Degenerate-size cases of the tree primitives.

func singleNode() *ett.Tree { return ett.MustTree([][]int32{{}}) }

func twoNodes() *ett.Tree { return ett.MustTree([][]int32{{1}, {0}}) }

func TestSingleNodeRootAndPrune(t *testing.T) {
	var clock sim.Clock
	rp := RootAndPrune(&clock, singleNode(), 0, []bool{true})
	if !rp.InVQ[0] || rp.QSize != 1 {
		t.Fatalf("single node in Q: InVQ=%v QSize=%d", rp.InVQ[0], rp.QSize)
	}
	rp2 := RootAndPrune(&clock, singleNode(), 0, []bool{false})
	if rp2.InVQ[0] || rp2.QSize != 0 {
		t.Fatal("single node outside Q mis-handled")
	}
}

func TestSingleNodeElect(t *testing.T) {
	var clock sim.Clock
	if got := Elect(&clock, ett.BuildTour(singleNode(), 0), []bool{true}); got != 0 {
		t.Fatalf("elected %d", got)
	}
	if got := Elect(&clock, ett.BuildTour(singleNode(), 0), []bool{false}); got != -1 {
		t.Fatalf("elected %d from empty Q", got)
	}
}

func TestSingleNodeCentroids(t *testing.T) {
	var clock sim.Clock
	c := Centroids(&clock, singleNode(), 0, []bool{true})
	if !c.IsCentroid[0] {
		t.Fatal("single Q node not its own centroid")
	}
}

func TestSingleNodeDecompose(t *testing.T) {
	var clock sim.Clock
	d := Decompose(&clock, singleNode(), 0, []bool{true})
	if d.Depth[0] != 0 || d.Height != 1 {
		t.Fatalf("depth=%d height=%d", d.Depth[0], d.Height)
	}
}

func TestTwoNodePrimitives(t *testing.T) {
	var clock sim.Clock
	tree := twoNodes()
	rp := RootAndPrune(&clock, tree, 0, []bool{false, true})
	if !rp.InVQ[0] || !rp.InVQ[1] {
		t.Fatal("two-node pruning wrong")
	}
	if rp.Parent[1] != 0 {
		t.Fatalf("parent[1] = %d", rp.Parent[1])
	}
	if got := Elect(&clock, ett.BuildTour(tree, 0), []bool{false, true}); got != 1 {
		t.Fatalf("elected %d", got)
	}
	c := Centroids(&clock, tree, 0, []bool{true, true})
	// Both split the tree into one component with 1 ≤ 2/2 Q node.
	if !c.IsCentroid[0] || !c.IsCentroid[1] {
		t.Fatalf("two-node centroids: %v", c.IsCentroid)
	}
	d := Decompose(&clock, tree, 0, []bool{true, true})
	if d.Height != 2 {
		t.Fatalf("two-node decomposition height %d", d.Height)
	}
}

func TestStarCentroid(t *testing.T) {
	// Star: center 0, leaves 1..5, all in Q. The center is the unique
	// Q-centroid (each leaf component has 1 ≤ 6/2; removing a leaf leaves
	// a 5-node component > 3).
	nbrs := [][]int32{{1, 2, 3, 4, 5}, {0}, {0}, {0}, {0}, {0}}
	tree := ett.MustTree(nbrs)
	inQ := []bool{true, true, true, true, true, true}
	var clock sim.Clock
	c := Centroids(&clock, tree, 2, inQ)
	for u := 0; u < 6; u++ {
		if c.IsCentroid[u] != (u == 0) {
			t.Fatalf("star centroid[%d] = %v", u, c.IsCentroid[u])
		}
	}
}

func TestDecomposeRespectsQOnly(t *testing.T) {
	// Nodes outside Q' never appear in the decomposition even when they
	// are cut vertices.
	nbrs := [][]int32{{1}, {0, 2}, {1, 3}, {2}}
	tree := ett.MustTree(nbrs)
	inQP := []bool{true, false, false, true}
	var clock sim.Clock
	d := Decompose(&clock, tree, 0, inQP)
	if d.Depth[1] != -1 || d.Depth[2] != -1 {
		t.Fatal("non-Q' node decomposed")
	}
	if d.Depth[0] < 0 || d.Depth[3] < 0 {
		t.Fatal("Q' node missing from decomposition")
	}
}
