package treeprim

import (
	"math/rand"
	"reflect"
	"testing"

	"spforest/internal/bitstream"
	"spforest/internal/ett"
	"spforest/internal/sim"
)

// ETTRootAndPrune is the reference execution of Lemma 20's root-and-prune:
// one ETT with weight function w_Q, run bit by bit, and one O(1)-state
// streaming subtractor per directed edge comparing the edge's prefix-sum
// difference against zero. It is the oracle of the closed-form
// RootAndPrune (and, through the external test package, of the portal
// primitives).
func ETTRootAndPrune(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *RootPruneResult {
	n := tree.Len()
	res := newRootPruneResult(n)
	if n == 1 {
		res.InVQ[0] = inQ[0]
		if inQ[0] {
			res.QSize = 1
		}
		return res
	}
	run := ett.NewRun(ett.BuildTour(tree, root), inQ)
	subs := make([][]bitstream.Subtractor, n)
	for u := 0; u < n; u++ {
		subs[u] = make([]bitstream.Subtractor, tree.Degree(int32(u)))
	}
	var total bitstream.Accumulator
	for !run.Done() {
		run.Step(clock)
		for u := int32(0); u < int32(n); u++ {
			for j := range subs[u] {
				out, in := run.EdgeBits(u, j)
				subs[u][j].Feed(out, in)
			}
		}
		total.Feed(run.TotalBit())
	}
	res.QSize = total.Value()
	for u := int32(0); u < int32(n); u++ {
		if u == root {
			res.InVQ[u] = res.QSize > 0
		}
		for j := range subs[u] {
			if subs[u][j].NonZero() {
				res.InVQ[u] = true
				res.DegQ[u]++
			}
			if u != root && subs[u][j].Sign() == bitstream.Greater {
				// Corollary 18: the neighbor with positive difference is
				// the parent.
				res.Parent[u] = tree.Neighbors[u][j]
				res.ParentOrd[u] = j
			}
		}
	}
	return res
}

// ETTCentroids is the reference execution of Lemma 23's Q-centroids: the
// root-and-prune execution, then a second ETT with the root broadcasting
// the current bit of |Q| each iteration (one extra round and beep), and per
// candidate edge a streamed component size compared against ⌊|Q|/2⌋ by a
// HalfComparator.
func ETTCentroids(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *CentroidResult {
	n := tree.Len()
	res := &CentroidResult{IsCentroid: make([]bool, n)}
	res.RP = ETTRootAndPrune(clock, tree, root, inQ)
	if n == 1 {
		res.IsCentroid[0] = inQ[0]
		return res
	}
	run := ett.NewRun(ett.BuildTour(tree, root), inQ)
	type edgeState struct {
		diff bitstream.Subtractor // prefix difference along the edge
		size bitstream.Subtractor // |Q| − diff (parent edges only)
		half bitstream.HalfComparator
	}
	states := make([][]edgeState, n)
	for u := 0; u < n; u++ {
		states[u] = make([]edgeState, tree.Degree(int32(u)))
	}
	for !run.Done() {
		run.Step(clock)
		clock.Tick(1) // the root broadcasts the current bit of |Q|
		clock.AddBeeps(1)
		qBit := run.TotalBit()
		for u := int32(0); u < int32(n); u++ {
			if !inQ[u] {
				continue
			}
			for j := range states[u] {
				st := &states[u][j]
				out, in := run.EdgeBits(u, j)
				var sizeBit uint8
				if j == res.RP.ParentOrd[u] {
					// Component of the parent: |Q| − (prefix(u,p) − prefix(p,u)).
					sizeBit = st.size.Feed(qBit, st.diff.Feed(out, in))
				} else {
					// Component of a child: prefix(v,u) − prefix(u,v).
					sizeBit = st.diff.Feed(in, out)
				}
				st.half.Feed(sizeBit, qBit)
			}
		}
	}
	for u := int32(0); u < int32(n); u++ {
		if !inQ[u] {
			continue
		}
		res.IsCentroid[u] = true
		for j := range states[u] {
			if states[u][j].half.Result() == bitstream.Greater {
				res.IsCentroid[u] = false
			}
		}
	}
	return res
}

// forEachOracleCase calls check on random trees, roots and Q sets: Q
// densities from the empty to the full set, every trial again with the
// root forced into Q, and single-node trees regularly.
func forEachOracleCase(seed int64, check func(tree *ett.Tree, root int32, inQ []bool)) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		if trial%10 == 0 {
			n = 1
		}
		tree := randomTree(rng, n)
		root := int32(rng.Intn(n))
		density := []int{0, 5, 20, 60, 100}[trial%5]
		inQ, _ := randomQ(rng, n, density)
		check(tree, root, inQ)
		inQ[root] = true
		check(tree, root, inQ)
	}
}

// TestRootAndPruneMatchesETTOracle property-tests the closed-form
// root-and-prune against the streamed ETT execution: the whole result
// struct, the rounds and the beeps must match.
func TestRootAndPruneMatchesETTOracle(t *testing.T) {
	forEachOracleCase(227, func(tree *ett.Tree, root int32, inQ []bool) {
		var want, got sim.Clock
		w := ETTRootAndPrune(&want, tree, root, inQ)
		g := RootAndPrune(&got, tree, root, inQ)
		if !reflect.DeepEqual(g, w) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
			t.Fatalf("n=%d root=%d Q=%v: closed form %+v (%d rounds, %d beeps), ETT %+v (%d rounds, %d beeps)",
				tree.Len(), root, inQ, g, got.Rounds(), got.Beeps(), w, want.Rounds(), want.Beeps())
		}
	})
}

// TestCentroidsMatchesETTOracle does the same for the Q-centroids: the
// centroid marks, the embedded root-and-prune result, rounds and beeps.
func TestCentroidsMatchesETTOracle(t *testing.T) {
	forEachOracleCase(229, func(tree *ett.Tree, root int32, inQ []bool) {
		var want, got sim.Clock
		w := ETTCentroids(&want, tree, root, inQ)
		g := Centroids(&got, tree, root, inQ)
		if !reflect.DeepEqual(g, w) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
			t.Fatalf("n=%d root=%d Q=%v: closed form %v (%d rounds, %d beeps), ETT %v (%d rounds, %d beeps)",
				tree.Len(), root, inQ, g.IsCentroid, got.Rounds(), got.Beeps(), w.IsCentroid, want.Rounds(), want.Beeps())
		}
	})
}

// TestClosedFormsPanicOnNonTree checks that the subtree-count traversal
// rejects adjacencies that are not trees instead of miscounting.
func TestClosedFormsPanicOnNonTree(t *testing.T) {
	for name, nbrs := range map[string][][]int32{
		"cycle":        {{1, 2}, {0, 2}, {0, 1}},
		"disconnected": {{1}, {0}, {}},
		"asymmetric":   {{1, 2}, {0}, {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RootAndPrune accepted a non-tree", name)
				}
			}()
			var clock sim.Clock
			RootAndPrune(&clock, &ett.Tree{Neighbors: nbrs}, 0, make([]bool, len(nbrs)))
		}()
	}
}
