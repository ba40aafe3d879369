package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// Property tests for the merging algorithm (Lemma 41/42).

// buildSPT is a helper returning a full single-source tree.
func buildSPT(t *testing.T, s *amoebot.Structure, src int32) *amoebot.Forest {
	t.Helper()
	var clock sim.Clock
	r := amoebot.WholeRegion(s)
	return SPTEnv(testEnv(), &clock, r, src, r.Nodes())
}

// TestMergeDepthsSymmetric: Merge(f1,f2) and Merge(f2,f1) may pick
// different parents on ties but must agree on every depth (= distance).
func TestMergeDepthsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(120))
		a := int32(rng.Intn(s.N()))
		b := int32(rng.Intn(s.N()))
		if a == b {
			continue
		}
		f1 := buildSPT(t, s, a)
		f2 := buildSPT(t, s, b)
		var c1, c2 sim.Clock
		m12 := MergeEnv(testEnv(), &c1, f1, f2)
		m21 := MergeEnv(testEnv(), &c2, f2, f1)
		for i := int32(0); i < int32(s.N()); i++ {
			if m12.Depth(i) != m21.Depth(i) {
				t.Fatalf("trial %d: depth asymmetry at node %d: %d vs %d",
					trial, i, m12.Depth(i), m21.Depth(i))
			}
		}
		if c1.Rounds() != c2.Rounds() {
			t.Fatalf("trial %d: merge rounds differ by order: %d vs %d",
				trial, c1.Rounds(), c2.Rounds())
		}
	}
}

// TestMergeAssociativeDepths: ((f1⊕f2)⊕f3) and (f1⊕(f2⊕f3)) agree on depths.
func TestMergeAssociativeDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 12; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(100))
		if s.N() < 3 {
			continue
		}
		perm := rng.Perm(s.N())
		a, b, c := int32(perm[0]), int32(perm[1]), int32(perm[2])
		f1, f2, f3 := buildSPT(t, s, a), buildSPT(t, s, b), buildSPT(t, s, c)
		var cl sim.Clock
		left := MergeEnv(testEnv(), &cl, MergeEnv(testEnv(), &cl, f1, f2), f3)
		right := MergeEnv(testEnv(), &cl, f1, MergeEnv(testEnv(), &cl, f2, f3))
		for i := int32(0); i < int32(s.N()); i++ {
			if left.Depth(i) != right.Depth(i) {
				t.Fatalf("trial %d: associativity broken at node %d", trial, i)
			}
		}
		if err := verify.Forest(s, []int32{a, b, c}, allNodes(s), left); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestMergeIdempotent: merging a forest with itself changes nothing.
func TestMergeIdempotent(t *testing.T) {
	s := shapes.Hexagon(4)
	f := buildSPT(t, s, 0)
	var clock sim.Clock
	m := MergeEnv(testEnv(), &clock, f, f.Clone())
	for i := int32(0); i < int32(s.N()); i++ {
		if m.Depth(i) != f.Depth(i) {
			t.Fatalf("self-merge changed depth at %d", i)
		}
	}
}

// TestMergeAgainstExact: merged depths equal the exact two-source distances.
func TestMergeAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		a := int32(rng.Intn(s.N()))
		b := int32(rng.Intn(s.N()))
		if a == b {
			continue
		}
		var clock sim.Clock
		m := MergeEnv(testEnv(), &clock, buildSPT(t, s, a), buildSPT(t, s, b))
		dist, _ := baseline.ExactExec(nil, amoebot.WholeRegion(s), []int32{a, b})
		for i := int32(0); i < int32(s.N()); i++ {
			if int32(m.Depth(i)) != dist[i] {
				t.Fatalf("trial %d: node %d depth %d, exact %d", trial, i, m.Depth(i), dist[i])
			}
		}
	}
}

// TestPruneAfterMergeKeepsSources: the final prune must keep every source
// as a root even when its tree serves no destination.
func TestPruneAfterMergeKeepsSources(t *testing.T) {
	s := shapes.Line(10)
	var clock sim.Clock
	m := MergeEnv(testEnv(), &clock, buildSPT(t, s, 0), buildSPT(t, s, 9))
	// The only destination sits next to source 0; source 9's tree is
	// pruned to the bare root.
	pruned := pruneToDestinations(testEnv(), &clock, m, amoebot.WholeRegion(s), []int32{0, 9}, []int32{1}, amoebot.NewForest(s))
	if err := verify.Forest(s, []int32{0, 9}, []int32{1}, pruned); err != nil {
		t.Fatal(err)
	}
	if !pruned.Member(9) || pruned.Parent(9) != amoebot.None {
		t.Fatal("destination-less source lost its root status")
	}
	if pruned.Member(5) {
		t.Fatal("midpoint survived pruning")
	}
}
