package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

func chainOf(s *amoebot.Structure) []int32 {
	out := make([]int32, s.N())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestLineForestTwoSources(t *testing.T) {
	s := shapes.Line(9)
	var clock sim.Clock
	f := LineForestEnv(testEnv(), &clock, s, chainOf(s), []int32{0, 8})
	if err := verify.Forest(s, []int32{0, 8}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
	// The midpoint ties west.
	if f.Parent(4) != 3 {
		t.Fatalf("midpoint parent = %d, want 3 (tie to the west)", f.Parent(4))
	}
}

func TestLineForestEndsWithoutSources(t *testing.T) {
	s := shapes.Line(10)
	var clock sim.Clock
	f := LineForestEnv(testEnv(), &clock, s, chainOf(s), []int32{4})
	if err := verify.Forest(s, []int32{4}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
	if f.Parent(0) != 1 || f.Parent(9) != 8 {
		t.Fatal("chain ends not oriented towards the single source")
	}
}

func TestLineForestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(120)
		s := shapes.Line(n)
		k := 1 + rng.Intn(n)
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := LineForestEnv(testEnv(), &clock, s, chainOf(s), sources)
		if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
	}
}

func TestLineForestRoundBound(t *testing.T) {
	// Rounds ≈ 2 + 2(⌊log₂ maxgap⌋+1): logarithmic in the largest
	// source-free gap (Lemma 40).
	n := 1 << 10
	s := shapes.Line(n)
	var clock sim.Clock
	f := LineForestEnv(testEnv(), &clock, s, chainOf(s), []int32{0})
	if err := verify.Forest(s, []int32{0}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
	maxIters := int64(bits.Len(uint(n - 1)))
	if clock.Rounds() > 2+2*maxIters {
		t.Fatalf("line rounds = %d, want ≤ %d", clock.Rounds(), 2+2*maxIters)
	}
}

func TestLineForestAllSources(t *testing.T) {
	s := shapes.Line(5)
	var clock sim.Clock
	f := LineForestEnv(testEnv(), &clock, s, chainOf(s), chainOf(s))
	for i := int32(0); i < 5; i++ {
		if f.Parent(i) != amoebot.None || !f.Member(i) {
			t.Fatal("all-sources line must be all roots")
		}
	}
}

func TestMergeTwoSingleSourceForests(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 25; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		r := amoebot.WholeRegion(s)
		s1 := int32(rng.Intn(s.N()))
		s2 := int32(rng.Intn(s.N()))
		if s1 == s2 {
			continue
		}
		var clock sim.Clock
		f1 := SPTEnv(testEnv(), &clock, r, s1, allNodes(s))
		f2 := SPTEnv(testEnv(), &clock, r, s2, allNodes(s))
		merged := MergeEnv(testEnv(), &clock, f1, f2)
		if err := verify.Forest(s, []int32{s1, s2}, allNodes(s), merged); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMergeWithEmptyForest(t *testing.T) {
	s := shapes.Line(6)
	r := amoebot.WholeRegion(s)
	var clock sim.Clock
	f1 := SPTEnv(testEnv(), &clock, r, 0, allNodes(s))
	empty := amoebot.NewForest(s)
	m := MergeEnv(testEnv(), &clock, f1, empty)
	if err := verify.Forest(s, []int32{0}, allNodes(s), m); err != nil {
		t.Fatal(err)
	}
	m2 := MergeEnv(testEnv(), &clock, empty, f1)
	if err := verify.Forest(s, []int32{0}, allNodes(s), m2); err != nil {
		t.Fatal(err)
	}
}

func TestMergeIsIncremental(t *testing.T) {
	// Merging k single-source trees one by one yields a valid k-source
	// forest: this is exactly the paper's naive sequential approach.
	rng := rand.New(rand.NewSource(117))
	s := shapes.Hexagon(5)
	r := amoebot.WholeRegion(s)
	sources := shapes.RandomSubset(rng, s, 5)
	var clock sim.Clock
	acc := SPTEnv(testEnv(), &clock, r, sources[0], allNodes(s))
	for _, src := range sources[1:] {
		next := SPTEnv(testEnv(), &clock, r, src, allNodes(s))
		acc = MergeEnv(testEnv(), &clock, acc, next)
	}
	if err := verify.Forest(s, sources, allNodes(s), acc); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRoundsLogarithmic(t *testing.T) {
	s := shapes.Parallelogram(64, 8)
	r := amoebot.WholeRegion(s)
	var build sim.Clock
	a, _ := s.Index(amoebot.XZ(0, 0))
	b, _ := s.Index(amoebot.XZ(63, 7))
	f1 := SPTEnv(testEnv(), &build, r, a, allNodes(s))
	f2 := SPTEnv(testEnv(), &build, r, b, allNodes(s))
	var clock sim.Clock
	MergeEnv(testEnv(), &clock, f1, f2)
	// Depth ≤ 70: the joint PASC needs ⌊log₂70⌋+1 = 7 iterations → 14 rounds.
	if clock.Rounds() > 14 {
		t.Fatalf("merge rounds = %d", clock.Rounds())
	}
}
