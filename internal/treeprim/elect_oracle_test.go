package treeprim

import (
	"math/rand"
	"testing"

	"spforest/internal/circuits"
	"spforest/internal/ett"
	"spforest/internal/sim"
)

// CircuitElect is the reference implementation of Lemma 21's election: it
// materializes the pin configuration — one partition set per tour
// instance, linked across every unmarked tour edge, so the tour splits into
// circuit subpaths at the first instance of each Q node — lets the root
// beep on instance 0, delivers the round and elects the owner of the first
// marked instance that heard the beep. It is the oracle of the closed-form
// Elect (and, through it, of portal.ElectPortal), exported to the external
// test package.
func CircuitElect(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) int32 {
	n := tree.Len()
	if n == 1 {
		clock.Tick(1)
		if inQ[0] {
			return 0
		}
		return -1
	}
	tour := ett.BuildTour(tree, root)
	marked := make([]bool, tour.Edges())
	done := make([]bool, n)
	for i := 0; i < tour.Edges(); i++ {
		u := tour.Node(int32(i))
		if inQ[u] && !done[u] {
			done[u] = true
			marked[i] = true
		}
	}
	net := circuits.New()
	ps := make([]circuits.PS, tour.Len())
	for i := range ps {
		ps[i] = net.NewPartitionSet(tour.Node(int32(i)))
	}
	for i := 0; i < tour.Edges(); i++ {
		if !marked[i] {
			net.Link(ps[i], ps[i+1])
		}
	}
	net.Beep(ps[0])
	net.Deliver(clock)
	for i := 0; i < tour.Edges(); i++ {
		if marked[i] && net.Received(ps[i]) {
			return tour.Node(int32(i))
		}
	}
	return -1
}

// TestElectMatchesCircuitOracle property-tests the closed-form election
// against the materialized circuit on random trees, roots and Q sets: the
// elected node, the rounds and the beeps must all match. The Q densities
// cover the empty set and the full set; every trial also runs with the
// root forced into Q, and single-node trees come up regularly.
func TestElectMatchesCircuitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	check := func(tree *ett.Tree, root int32, inQ []bool) {
		t.Helper()
		var want, got sim.Clock
		w := CircuitElect(&want, tree, root, inQ)
		g := Elect(&got, ett.BuildTour(tree, root), inQ)
		if g != w || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
			t.Fatalf("n=%d root=%d Q=%v: closed form %d (%d rounds, %d beeps), circuit %d (%d rounds, %d beeps)",
				tree.Len(), root, inQ, g, got.Rounds(), got.Beeps(), w, want.Rounds(), want.Beeps())
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
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
