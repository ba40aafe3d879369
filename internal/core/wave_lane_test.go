package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/wave"
)

func sameForest(t *testing.T, label string, want, got *amoebot.Forest) {
	t.Helper()
	n := int32(want.Structure().N())
	for u := int32(0); u < n; u++ {
		if want.Member(u) != got.Member(u) {
			t.Fatalf("%s: node %d membership %v vs %v", label, u, want.Member(u), got.Member(u))
		}
		if want.Member(u) && want.Parent(u) != got.Parent(u) {
			t.Fatalf("%s: node %d parent %d vs %d", label, u, want.Parent(u), got.Parent(u))
		}
	}
}

func sameClock(t *testing.T, label string, want, got *sim.Clock) {
	t.Helper()
	if want.Rounds() != got.Rounds() || want.Beeps() != got.Beeps() {
		t.Fatalf("%s: rounds/beeps %d/%d vs %d/%d",
			label, want.Rounds(), want.Beeps(), got.Rounds(), got.Beeps())
	}
}

// checkMergeManyPerPair merges npairs random forest pairs once through
// MergeManyEnv under the packed env and once pair by pair through
// MergeEnv: forests must agree, and every pair's clock must be charged
// exactly its own merge even when pairs of very different depths share
// packed passes. With withEmpty, about one pair in eight has an empty side
// (a trivial pair: cloned, never packed). Returns the number of live pairs.
func checkMergeManyPerPair(t *testing.T, rng *rand.Rand, label string, npairs, maxN int, withEmpty bool, packed *Env) int {
	t.Helper()
	pairs := make([][2]*amoebot.Forest, npairs)
	refClocks := make([]*sim.Clock, npairs)
	packedClocks := make([]*sim.Clock, npairs)
	var want []*amoebot.Forest
	live := 0
	for i := range pairs {
		s := shapes.RandomBlob(rng, 10+rng.Intn(maxN))
		r := amoebot.WholeRegion(s)
		srcs := shapes.RandomSubset(rng, s, 2)
		var build sim.Clock
		pairs[i][0] = SPTEnv(testEnv(), &build, r, srcs[0], r.Nodes())
		if withEmpty && rng.Intn(8) == 0 {
			pairs[i][1] = amoebot.NewForest(s) // empty side: trivial pair
		} else {
			pairs[i][1] = SPTEnv(testEnv(), &build, r, srcs[1], r.Nodes())
			live++
		}
		refClocks[i] = &sim.Clock{}
		packedClocks[i] = &sim.Clock{}
		want = append(want, MergeEnv(testEnv(), refClocks[i], pairs[i][0], pairs[i][1]))
	}
	got := MergeManyEnv(packed, packedClocks, pairs)
	for i := range pairs {
		l := fmt.Sprintf("%s pair %d/%d", label, i, npairs)
		sameForest(t, l, want[i], got[i])
		sameClock(t, l, refClocks[i], packedClocks[i])
	}
	return live
}

// TestWaveLaneMergeManyMatchesPerPair pins MergeManyEnv against per-pair
// MergeEnv calls on batches that fit one packed pass.
func TestWaveLaneMergeManyMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 10; trial++ {
		checkMergeManyPerPair(t, rng, fmt.Sprintf("trial %d", trial), 1+rng.Intn(7), 120, true, testEnv())
	}
}

// TestWaveLaneMergeManyTwoPasses covers the pass boundary: more live pairs
// than one packed pass carries (wave.MaxLanes/2) split over two passes,
// each pair still charged exactly its own merge, with both waves of every
// live pair counted as packed.
func TestWaveLaneMergeManyTwoPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	const npairs = wave.MaxLanes/2 + 8
	var ctr wave.Counters
	if live := checkMergeManyPerPair(t, rng, "two passes", npairs, 60, false, testEnv().WithWaves(&ctr)); live != npairs {
		t.Fatalf("%d live pairs, want %d", live, npairs)
	}
	if got := ctr.WavesPacked.Load(); got != 2*npairs {
		t.Fatalf("WavesPacked = %d, want %d (two waves per live pair)", got, 2*npairs)
	}
}
