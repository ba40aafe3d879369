package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// TestForestStress runs the divide-and-conquer algorithm over a wide sweep
// of structures, source counts and destination sets, verifying every output
// against the centralized reference. This is the main integration test of
// the repository. Shorter in -short mode.
func TestForestStress(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < trials; trial++ {
		var s *amoebot.Structure
		switch trial % 5 {
		case 0:
			s = shapes.RandomBlob(rng, 50+rng.Intn(500))
		case 1:
			s = shapes.Parallelogram(4+rng.Intn(20), 2+rng.Intn(12))
		case 2:
			s = shapes.Hexagon(2 + rng.Intn(7))
		case 3:
			s = shapes.Comb(2+rng.Intn(6), 1+rng.Intn(10))
		default:
			s = shapes.Staircase(2+rng.Intn(4), 3+rng.Intn(6), 2+rng.Intn(4))
		}
		r := amoebot.WholeRegion(s)
		k := 1 + rng.Intn(16)
		if k > s.N() {
			k = s.N()
		}
		sources := shapes.RandomSubset(rng, s, k)
		var dests []int32
		if rng.Intn(2) == 0 {
			dests = allNodes(s)
		} else {
			l := 1 + rng.Intn(10)
			if l > s.N() {
				l = s.N()
			}
			dests = shapes.RandomSubset(rng, s, l)
		}
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, dests, sources[rng.Intn(len(sources))], ScheduleCentroid)
		if err := verify.Forest(s, sources, dests, f); err != nil {
			t.Fatalf("trial %d (n=%d, k=%d, ℓ=%d, sources=%v): %v",
				trial, s.N(), k, len(dests), sources, err)
		}
	}
}

// TestForestStressHighK pushes the source count towards n to exercise deep
// centroid decompositions and dense mark pairings.
func TestForestStressHighK(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(4048))
	for trial := 0; trial < trials; trial++ {
		s := shapes.RandomBlob(rng, 40+rng.Intn(160))
		r := amoebot.WholeRegion(s)
		k := s.N()/4 + 1 + rng.Intn(s.N()/2)
		if k > s.N() {
			k = s.N()
		}
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
		if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatalf("trial %d (n=%d, k=%d): %v", trial, s.N(), k, err)
		}
	}
}

// TestForestAllSourcesEverywhere: every amoebot a source.
func TestForestAllSourcesEverywhere(t *testing.T) {
	s := shapes.Hexagon(3)
	r := amoebot.WholeRegion(s)
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, allNodes(s), allNodes(s), 0, ScheduleCentroid)
	if err := verify.Forest(s, allNodes(s), allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

// TestForestPolylogRounds checks the headline complexity claim: at fixed k,
// rounds grow polylogarithmically in n (we allow a generous envelope of
// c·log²n for the fixed small k, far below the linear growth of BFS).
func TestForestPolylogRounds(t *testing.T) {
	rounds := func(side int) int64 {
		s := shapes.Parallelogram(side, side)
		r := amoebot.WholeRegion(s)
		var sources []int32
		for _, xz := range [][2]int{{0, 0}, {side - 1, side - 1}, {0, side - 1}, {side - 1, 0}} {
			u, _ := s.Index(amoebot.XZ(xz[0], xz[1]))
			sources = append(sources, u)
		}
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
		if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatal(err)
		}
		return clock.Rounds()
	}
	r8, r64 := rounds(8), rounds(64)
	// n grows 64-fold, diameter 8-fold; polylog growth must stay well under
	// the 8x of a diameter-bound algorithm.
	if r64 > 4*r8 {
		t.Fatalf("round growth looks super-polylog: R(8²)=%d R(64²)=%d", r8, r64)
	}
}
