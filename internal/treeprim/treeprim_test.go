package treeprim

import (
	"math/bits"
	"math/rand"
	"testing"

	"spforest/internal/ett"
	"spforest/internal/sim"
)

func randomTree(rng *rand.Rand, n int) *ett.Tree {
	nbrs := make([][]int32, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		nbrs[p] = append(nbrs[p], int32(i))
		nbrs[i] = append(nbrs[i], int32(p))
	}
	return ett.MustTree(nbrs)
}

func randomQ(rng *rand.Rand, n int, p int) ([]bool, int) {
	q := make([]bool, n)
	count := 0
	for i := range q {
		if rng.Intn(100) < p {
			q[i] = true
			count++
		}
	}
	return q, count
}

// bruteRooted computes parent pointers and Q-subtree counts w.r.t. root.
func bruteRooted(tree *ett.Tree, root int32, inQ []bool) (parent []int32, subQ []int) {
	n := tree.Len()
	parent = make([]int32, n)
	subQ = make([]int, n)
	order := make([]int32, 0, n)
	parent[root] = -1
	seen := make([]bool, n)
	seen[root] = true
	stack := []int32{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, v := range tree.Neighbors[u] {
			if !seen[v] {
				seen[v] = true
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if inQ[u] {
			subQ[u]++
		}
		if parent[u] >= 0 {
			subQ[parent[u]] += subQ[u]
		}
	}
	return parent, subQ
}

func TestRootAndPruneAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(60)
		tree := randomTree(rng, n)
		root := int32(rng.Intn(n))
		inQ, sizeQ := randomQ(rng, n, 25)
		var clock sim.Clock
		rp := RootAndPrune(&clock, tree, root, inQ)
		if rp.QSize != uint64(sizeQ) {
			t.Fatalf("trial %d: QSize = %d, want %d", trial, rp.QSize, sizeQ)
		}
		parent, subQ := bruteRooted(tree, root, inQ)
		for u := int32(0); u < int32(n); u++ {
			wantIn := subQ[u] > 0
			if rp.InVQ[u] != wantIn {
				t.Fatalf("trial %d: InVQ[%d] = %v, want %v", trial, u, rp.InVQ[u], wantIn)
			}
			if wantIn && u != root {
				if rp.Parent[u] != parent[u] {
					t.Fatalf("trial %d: parent[%d] = %d, want %d", trial, u, rp.Parent[u], parent[u])
				}
			}
			if !wantIn && rp.Parent[u] != -1 {
				t.Fatalf("trial %d: pruned node %d has parent", trial, u)
			}
			if wantIn {
				// degQ = neighbors in VQ.
				want := 0
				for _, v := range tree.Neighbors[u] {
					if v == parent[u] {
						// parent is in VQ iff u is (both survive together)
						want++
					} else if subQ[v] > 0 {
						want++
					}
				}
				if rp.DegQ[u] != want {
					t.Fatalf("trial %d: degQ[%d] = %d, want %d", trial, u, rp.DegQ[u], want)
				}
			}
		}
	}
}

func TestRootAndPruneRoundBound(t *testing.T) {
	// Rounds = 2(⌊log₂|Q|⌋+1), independent of n (Lemma 20).
	rng := rand.New(rand.NewSource(17))
	tree := randomTree(rng, 400)
	for _, qn := range []int{1, 2, 3, 7, 8, 100} {
		inQ := make([]bool, 400)
		for i := 0; i < qn; i++ {
			inQ[i*3] = true
		}
		var clock sim.Clock
		RootAndPrune(&clock, tree, 0, inQ)
		want := int64(2 * bits.Len(uint(qn)))
		if clock.Rounds() != want {
			t.Errorf("|Q|=%d: rounds = %d, want %d", qn, clock.Rounds(), want)
		}
	}
}

func TestElect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		tree := randomTree(rng, n)
		root := int32(rng.Intn(n))
		inQ, sizeQ := randomQ(rng, n, 20)
		var clock sim.Clock
		got := Elect(&clock, ett.BuildTour(tree, root), inQ)
		if clock.Rounds() != 1 {
			t.Fatalf("election took %d rounds", clock.Rounds())
		}
		if sizeQ == 0 {
			if got != -1 {
				t.Fatalf("elected %d from empty Q", got)
			}
			continue
		}
		if got < 0 || !inQ[got] {
			t.Fatalf("elected %d not in Q", got)
		}
		// Determinism.
		var clock2 sim.Clock
		if again := Elect(&clock2, ett.BuildTour(tree, root), inQ); again != got {
			t.Fatalf("election not deterministic: %d then %d", got, again)
		}
	}
}

func bruteCentroids(tree *ett.Tree, inQ []bool) []bool {
	n := tree.Len()
	sizeQ := 0
	for _, q := range inQ {
		if q {
			sizeQ++
		}
	}
	out := make([]bool, n)
	for u := int32(0); u < int32(n); u++ {
		if !inQ[u] {
			continue
		}
		ok := true
		seen := make([]bool, n)
		seen[u] = true
		for _, start := range tree.Neighbors[u] {
			if seen[start] {
				continue
			}
			cnt := 0
			stack := []int32{start}
			seen[start] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if inQ[x] {
					cnt++
				}
				for _, v := range tree.Neighbors[x] {
					if !seen[v] {
						seen[v] = true
						stack = append(stack, v)
					}
				}
			}
			if 2*cnt > sizeQ {
				ok = false
			}
		}
		out[u] = ok
	}
	return out
}

func TestCentroidsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(50)
		tree := randomTree(rng, n)
		root := int32(rng.Intn(n))
		inQ, _ := randomQ(rng, n, 30)
		var clock sim.Clock
		got := Centroids(&clock, tree, root, inQ)
		want := bruteCentroids(tree, inQ)
		for u := 0; u < n; u++ {
			if got.IsCentroid[u] != want[u] {
				t.Fatalf("trial %d (n=%d): centroid[%d] = %v, want %v",
					trial, n, u, got.IsCentroid[u], want[u])
			}
		}
	}
}

func TestCentroidsOfPath(t *testing.T) {
	// Path 0-1-2-3-4, Q = everything: centroid is the middle node.
	nbrs := [][]int32{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	tree := ett.MustTree(nbrs)
	inQ := []bool{true, true, true, true, true}
	var clock sim.Clock
	got := Centroids(&clock, tree, 0, inQ)
	for u := 0; u < 5; u++ {
		if got.IsCentroid[u] != (u == 2) {
			t.Fatalf("centroid[%d] = %v", u, got.IsCentroid[u])
		}
	}
}

func TestAugmentationBound(t *testing.T) {
	// |A_Q| ≤ |Q| − 1 (Corollary 29).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(80)
		tree := randomTree(rng, n)
		inQ, sizeQ := randomQ(rng, n, 15)
		if sizeQ == 0 {
			continue
		}
		var clock sim.Clock
		rp := RootAndPrune(&clock, tree, int32(rng.Intn(n)), inQ)
		aq := Augmentation(rp)
		count := 0
		for u := range aq {
			if aq[u] {
				count++
				if !rp.InVQ[u] {
					t.Fatal("augmentation node outside V_Q")
				}
			}
		}
		if count > sizeQ-1 && sizeQ >= 1 && count > 0 {
			t.Fatalf("trial %d: |A_Q| = %d > |Q|-1 = %d", trial, count, sizeQ-1)
		}
	}
}

// pathBetween returns the tree path between a and b.
func pathBetween(tree *ett.Tree, a, b int32) []int32 {
	parent := make([]int32, tree.Len())
	for i := range parent {
		parent[i] = -2
	}
	parent[a] = -1
	queue := []int32{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == b {
			break
		}
		for _, v := range tree.Neighbors[u] {
			if parent[v] == -2 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	var path []int32
	for u := b; u != -1; u = parent[u] {
		path = append(path, u)
	}
	return path
}

func TestDecomposeValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		tree := randomTree(rng, n)
		root := int32(rng.Intn(n))
		inQ, sizeQ := randomQ(rng, n, 25)
		if sizeQ == 0 {
			continue
		}
		// Build the augmented Q' = Q ∪ A_Q.
		var c0 sim.Clock
		rp := RootAndPrune(&c0, tree, root, inQ)
		aq := Augmentation(rp)
		qp := make([]bool, n)
		sizeQP := 0
		for i := range qp {
			qp[i] = inQ[i] || aq[i]
			if qp[i] {
				sizeQP++
			}
		}
		var clock sim.Clock
		dec := Decompose(&clock, tree, root, qp)
		// Every Q' node is assigned a depth; nothing else is.
		for u := 0; u < n; u++ {
			if qp[u] != (dec.Depth[u] >= 0) {
				t.Fatalf("trial %d: depth assignment wrong at %d", trial, u)
			}
		}
		// Height bound: ⌊log₂|Q'|⌋+1 levels (each level halves the count).
		if dec.Height > bits.Len(uint(sizeQP)) {
			t.Fatalf("trial %d: height %d for |Q'|=%d", trial, dec.Height, sizeQP)
		}
		// Separation: on the path between two same-depth centroids there is
		// a strictly shallower centroid.
		for a := int32(0); a < int32(n); a++ {
			for b := a + 1; b < int32(n); b++ {
				if dec.Depth[a] < 0 || dec.Depth[a] != dec.Depth[b] {
					continue
				}
				found := false
				for _, x := range pathBetween(tree, a, b) {
					if x != a && x != b && dec.Depth[x] >= 0 && dec.Depth[x] < dec.Depth[a] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: same-depth centroids %d,%d not separated", trial, a, b)
				}
			}
		}
		// Parent centroids are strictly shallower.
		for u := 0; u < n; u++ {
			if p := dec.ParentCentroid[u]; p >= 0 {
				if dec.Depth[p] >= dec.Depth[u] {
					t.Fatalf("trial %d: DT edge %d->%d has non-increasing depth", trial, u, p)
				}
			} else if dec.Depth[u] > 0 {
				t.Fatalf("trial %d: non-root centroid %d without DT parent", trial, u)
			}
		}
		// Exactly one DT root.
		roots := 0
		for u := 0; u < n; u++ {
			if dec.Depth[u] == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("trial %d: %d depth-0 centroids", trial, roots)
		}
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tree := randomTree(rng, 40)
	inQ, _ := randomQ(rng, 40, 40)
	var c1, c2 sim.Clock
	rp := RootAndPrune(&c1, tree, 0, inQ)
	aq := Augmentation(rp)
	qp := make([]bool, 40)
	any := false
	for i := range qp {
		qp[i] = inQ[i] || aq[i]
		any = any || qp[i]
	}
	if !any {
		t.Skip("empty Q'")
	}
	d1 := Decompose(&c1, tree, 0, qp)
	d2 := Decompose(&c2, tree, 0, qp)
	for u := 0; u < 40; u++ {
		if d1.Depth[u] != d2.Depth[u] {
			t.Fatal("decomposition not deterministic")
		}
	}
}
