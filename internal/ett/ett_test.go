package ett

import (
	"math/rand"
	"testing"

	"spforest/internal/bitstream"
	"spforest/internal/pasc"
	"spforest/internal/sim"
)

// randomTree builds a random tree with deterministic neighbor orders and
// returns (tree, parent array w.r.t. node 0).
func randomTree(rng *rand.Rand, n int) (*Tree, []int32) {
	parent := make([]int32, n)
	parent[0] = -1
	nbrs := make([][]int32, n)
	for i := 1; i < n; i++ {
		p := int32(rng.Intn(i))
		parent[i] = p
		nbrs[p] = append(nbrs[p], int32(i))
		nbrs[i] = append(nbrs[i], p)
	}
	return MustTree(nbrs), parent
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Error("empty tree accepted")
	}
	// Asymmetric adjacency.
	if _, err := NewTree([][]int32{{1}, {}}); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
	// Cycle: triangle.
	if _, err := NewTree([][]int32{{1, 2}, {0, 2}, {0, 1}}); err == nil {
		t.Error("cycle accepted")
	}
	// Disconnected with correct edge count is impossible for trees, but a
	// disconnected graph with a cycle and an isolated node has 2(n-1) edges
	// for n=4: triangle (6 directed edges) + isolated = 6 = 2*3. Must fail.
	if _, err := NewTree([][]int32{{1, 2}, {0, 2}, {0, 1}, {}}); err == nil {
		t.Error("disconnected pseudo-tree accepted")
	}
	// Out-of-range neighbor.
	if _, err := NewTree([][]int32{{5}}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestTourVisitsEveryDirectedEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		tree, _ := randomTree(rng, n)
		root := int32(rng.Intn(n))
		tour := BuildTour(tree, root)
		if tour.Len() != 2*(n-1)+1 {
			t.Fatalf("tour length %d for n=%d", tour.Len(), n)
		}
		if tour.Node(0) != root || tour.Node(int32(tour.Edges())) != root {
			t.Fatal("tour does not start and end at root")
		}
		// Every consecutive pair must be a tree edge; each directed edge
		// exactly once.
		seen := map[[2]int32]bool{}
		for i := 0; i < tour.Edges(); i++ {
			u, v := tour.Node(int32(i)), tour.Node(int32(i+1))
			if tree.ordinal(u, v) < 0 {
				t.Fatalf("tour step %d: %d->%d is not a tree edge", i, u, v)
			}
			key := [2]int32{u, v}
			if seen[key] {
				t.Fatalf("directed edge %v visited twice", key)
			}
			seen[key] = true
		}
		if len(seen) != 2*(n-1) {
			t.Fatalf("visited %d directed edges, want %d", len(seen), 2*(n-1))
		}
		// Instance indices must be consistent with the tour.
		for u := int32(0); u < int32(n); u++ {
			for j := range tree.Neighbors[u] {
				oi := tour.OutInstance(u, j)
				if tour.Node(oi) != u || tour.Node(oi+1) != tree.Neighbors[u][j] {
					t.Fatalf("OutInstance(%d,%d) inconsistent", u, j)
				}
				ii := tour.InInstance(u, j)
				if tour.Node(ii) != u || tour.Node(ii-1) != tree.Neighbors[u][j] {
					t.Fatalf("InInstance(%d,%d) inconsistent", u, j)
				}
			}
		}
	}
}

func TestSingleNodeTour(t *testing.T) {
	tour := BuildTour(MustTree([][]int32{{}}), 0)
	if tour.Len() != 1 || tour.Edges() != 0 {
		t.Fatalf("single node tour: len=%d edges=%d", tour.Len(), tour.Edges())
	}
}

// runETT drives a run to completion, accumulating per-edge differences and
// the total, the way the streaming machines would.
func runETT(t *testing.T, tour *Tour, inQ []bool) (diff [][]int64, total uint64, rounds int64) {
	t.Helper()
	var clock sim.Clock
	run := NewRun(tour, inQ)
	n := tour.Tree().Len()
	subs := make([][]bitstream.Subtractor, n)
	outAcc := make([][]bitstream.Accumulator, n)
	inAcc := make([][]bitstream.Accumulator, n)
	for u := 0; u < n; u++ {
		deg := tour.Tree().Degree(int32(u))
		subs[u] = make([]bitstream.Subtractor, deg)
		outAcc[u] = make([]bitstream.Accumulator, deg)
		inAcc[u] = make([]bitstream.Accumulator, deg)
	}
	var totalAcc bitstream.Accumulator
	for !run.Done() {
		run.Step(&clock)
		for u := 0; u < n; u++ {
			for j := range subs[u] {
				out, in := run.EdgeBits(int32(u), j)
				subs[u][j].Feed(out, in)
				outAcc[u][j].Feed(out)
				inAcc[u][j].Feed(in)
			}
		}
		totalAcc.Feed(run.TotalBit())
	}
	diff = make([][]int64, n)
	for u := 0; u < n; u++ {
		diff[u] = make([]int64, len(subs[u]))
		for j := range subs[u] {
			diff[u][j] = int64(outAcc[u][j].Value()) - int64(inAcc[u][j].Value())
			// The streaming subtractor must agree in sign with the
			// accumulated integers.
			var wantSign bitstream.Ordering
			switch {
			case diff[u][j] < 0:
				wantSign = bitstream.Less
			case diff[u][j] > 0:
				wantSign = bitstream.Greater
			}
			if subs[u][j].Sign() != wantSign {
				t.Fatalf("streamed sign %v but integer diff %d", subs[u][j].Sign(), diff[u][j])
			}
		}
	}
	return diff, totalAcc.Value(), clock.Rounds()
}

// TestLemma17SubtreeCounts checks that prefixsum(u,p)−prefixsum(p,u) counts
// the Q-nodes in u's subtree, for random trees, roots and sets Q.
func TestLemma17SubtreeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(50)
		tree, _ := randomTree(rng, n)
		root := int32(rng.Intn(n))
		inQ := make([]bool, n)
		sizeQ := 0
		for i := range inQ {
			if rng.Intn(3) == 0 {
				inQ[i] = true
				sizeQ++
			}
		}
		tour := BuildTour(tree, root)
		diff, total, _ := runETT(t, tour, inQ)
		if total != uint64(sizeQ) {
			t.Fatalf("trial %d: |Q| streamed as %d, want %d", trial, total, sizeQ)
		}
		// Ground truth subtree counts w.r.t. root.
		parent := make([]int32, n)
		order := make([]int32, 0, n)
		parent[root] = -1
		stack := []int32{root}
		seen := make([]bool, n)
		seen[root] = true
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
		subQ := make([]int64, n)
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			if inQ[u] {
				subQ[u]++
			}
			if parent[u] >= 0 {
				subQ[parent[u]] += subQ[u]
			}
		}
		for u := int32(0); u < int32(n); u++ {
			for j, v := range tree.Neighbors[u] {
				var want int64
				if v == parent[u] {
					want = subQ[u] // Lemma 17(1)
				} else {
					want = -subQ[v] // Lemma 17(4): prefixsum(u,c)−prefixsum(c,u) = −subtree(c)
				}
				if diff[u][j] != want {
					t.Fatalf("trial %d: diff(%d -> %d) = %d, want %d", trial, u, v, diff[u][j], want)
				}
			}
		}
	}
}

func TestETTIterationBound(t *testing.T) {
	// Rounds must be 2·(⌊log₂|Q|⌋+1), independent of n (Lemma 14).
	rng := rand.New(rand.NewSource(3))
	tree, _ := randomTree(rng, 500)
	tour := BuildTour(tree, 0)
	inQ := make([]bool, 500)
	inQ[100], inQ[200], inQ[300] = true, true, true // |Q| = 3
	_, total, rounds := runETT(t, tour, inQ)
	if total != 3 {
		t.Fatalf("total = %d", total)
	}
	if rounds != 4 { // ⌊log₂3⌋+1 = 2 iterations → 4 rounds
		t.Fatalf("rounds = %d, want 4", rounds)
	}
}

func TestETTEmptyQ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tree, _ := randomTree(rng, 20)
	tour := BuildTour(tree, 5)
	diff, total, rounds := runETT(t, tour, make([]bool, 20))
	if total != 0 {
		t.Fatalf("total = %d", total)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (single silent iteration)", rounds)
	}
	for u := range diff {
		for _, d := range diff[u] {
			if d != 0 {
				t.Fatal("nonzero diff with empty Q")
			}
		}
	}
}

// TestChargeMatchesPrefixSumOracle checks the closed-form ETT charge
// against the PASC it stands for: a prefix-sum run over a chain whose m
// marked slots are interleaved with unmarked ones, stepped to completion,
// must take the same iterations, rounds and beeps as Charge(m), for every
// m in 0..1024.
func TestChargeMatchesPrefixSumOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for m := 0; m <= 1024; m++ {
		var weights []bool
		for marked := 0; marked < m; {
			w := rng.Intn(3) == 0
			weights = append(weights, w)
			if w {
				marked++
			}
		}
		weights = append(weights, false)
		run := pasc.NewPrefixSum(weights)
		var want, got sim.Clock
		for !run.Done() {
			run.Step(&want)
		}
		iters := Charge(&got, m)
		if iters != run.Iterations() || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
			t.Fatalf("m=%d: Charge %d iterations (%d rounds, %d beeps), PASC %d iterations (%d rounds, %d beeps)",
				m, iters, got.Rounds(), got.Beeps(), run.Iterations(), want.Rounds(), want.Beeps())
		}
	}
}
