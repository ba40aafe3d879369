package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// Large-scale runs (skipped with -short): the algorithms and the verifier
// at tens of thousands of amoebots.

func TestScaleSSSP(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	s := shapes.Hexagon(128) // n = 49537
	r := amoebot.WholeRegion(s)
	src, _ := s.Index(amoebot.XZ(-128, 0))
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, r, src, r.Nodes())
	if err := verify.Forest(s, []int32{src}, r.Nodes(), f); err != nil {
		t.Fatal(err)
	}
	if clock.Rounds() > 120 {
		t.Fatalf("SSSP on n=%d took %d rounds", s.N(), clock.Rounds())
	}
}

func TestScaleForest(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	rng := rand.New(rand.NewSource(99))
	s := shapes.RandomBlob(rng, 30000)
	r := amoebot.WholeRegion(s)
	sources := shapes.RandomSubset(rng, s, 64)
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, r.Nodes(), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, r.Nodes(), f); err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d k=64: %d rounds", s.N(), clock.Rounds())
}

func TestScaleSequentialVsDnC(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	rng := rand.New(rand.NewSource(101))
	s := shapes.RandomBlob(rng, 10000)
	r := amoebot.WholeRegion(s)
	sources := shapes.RandomSubset(rng, s, 96)
	var c1, c2 sim.Clock
	f1 := ForestEnv(testEnv(), &c1, r, sources, r.Nodes(), sources[0], ScheduleCentroid)
	f2 := ForestSequentialEnv(testEnv(), &c2, r, sources, r.Nodes())
	if err := verify.Forest(s, sources, r.Nodes(), f1); err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(s, sources, r.Nodes(), f2); err != nil {
		t.Fatal(err)
	}
	if c1.Rounds() >= c2.Rounds() {
		t.Fatalf("D&C (%d rounds) did not beat sequential (%d rounds) at k=96",
			c1.Rounds(), c2.Rounds())
	}
}
