package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// TestLaneBFSForestManyMatchesSolo pins the lane-packed multi-source sweep
// against per-source BFSForestExec runs on the same region: identical
// forests and identical per-lane round/beep accounting, including lanes
// that terminate at very different layers and lanes whose source sets
// overlap other lanes'. The regions are whole blobs and strict random
// subsets of them (often disconnected), whose cells outside start seen;
// source sets are drawn from the whole blob, so some sources lie outside.
func TestLaneBFSForestManyMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for _, lanes := range []int{1, 5, 8, 9, 16, 17, 32, 33, 64} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			for trial := 0; trial < 16; trial++ {
				s := shapes.RandomBlob(rng, 40+rng.Intn(300))
				r := amoebot.WholeRegion(s)
				if trial%2 == 1 {
					keep := 30 + rng.Intn(66) // percent of the blob kept
					var nodes []int32
					for u := int32(1); u < int32(s.N()); u++ { // node 0 never: strict
						if rng.Intn(100) < keep {
							nodes = append(nodes, u)
						}
					}
					r = amoebot.NewRegion(s, nodes)
				}
				sourceSets := make([][]int32, lanes)
				for l := range sourceSets {
					sourceSets[l] = shapes.RandomSubset(rng, s, 1+rng.Intn(4))
				}
				clocks := make([]*sim.Clock, lanes)
				for l := range clocks {
					clocks[l] = &sim.Clock{}
				}
				packed := BFSForestMany(clocks, r, sourceSets)
				for l := range sourceSets {
					var solo sim.Clock
					want := BFSForestExec(nil, &solo, r, sourceSets[l])
					label := fmt.Sprintf("trial %d lane %d (%d of %d amoebots)", trial, l, r.Len(), s.N())
					for u := int32(0); u < int32(s.N()); u++ {
						if want.Member(u) != packed[l].Member(u) {
							t.Fatalf("%s: node %d membership %v vs %v",
								label, u, want.Member(u), packed[l].Member(u))
						}
						if want.Member(u) && want.Parent(u) != packed[l].Parent(u) {
							t.Fatalf("%s: node %d parent %d vs %d",
								label, u, want.Parent(u), packed[l].Parent(u))
						}
					}
					if solo.Rounds() != clocks[l].Rounds() || solo.Beeps() != clocks[l].Beeps() {
						t.Fatalf("%s: solo rounds/beeps %d/%d, lane %d/%d",
							label, solo.Rounds(), solo.Beeps(), clocks[l].Rounds(), clocks[l].Beeps())
					}
				}
			}
		})
	}
}
