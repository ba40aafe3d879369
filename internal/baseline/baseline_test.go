package baseline

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

func TestExactSingleSource(t *testing.T) {
	s := shapes.Line(6)
	r := amoebot.WholeRegion(s)
	dist, nearest := ExactExec(nil, r, []int32{0})
	for i := int32(0); i < 6; i++ {
		if dist[i] != i {
			t.Fatalf("dist[%d] = %d", i, dist[i])
		}
		if nearest[i] != 0 {
			t.Fatalf("nearest[%d] = %d", i, nearest[i])
		}
	}
}

func TestExactMultiSourceTieBreak(t *testing.T) {
	s := shapes.Line(5)
	r := amoebot.WholeRegion(s)
	dist, nearest := ExactExec(nil, r, []int32{0, 4})
	wantDist := []int32{0, 1, 2, 1, 0}
	wantNear := []int32{0, 0, 0, 4, 4} // the middle ties towards index 0
	for i := range wantDist {
		if dist[i] != wantDist[i] || nearest[i] != wantNear[i] {
			t.Fatalf("node %d: dist %d nearest %d", i, dist[i], nearest[i])
		}
	}
}

func TestExactRespectsRegion(t *testing.T) {
	s := shapes.Line(5)
	r := amoebot.NewRegion(s, []int32{0, 1, 3, 4})
	dist, _ := ExactExec(nil, r, []int32{0})
	if dist[2] != -1 {
		t.Fatal("distance computed for node outside region")
	}
	if dist[3] != -1 || dist[4] != -1 {
		t.Fatal("distance crossed the region gap")
	}
	// Source outside the region is ignored.
	dist2, _ := ExactExec(nil, r, []int32{2})
	for i := range dist2 {
		if dist2[i] != -1 {
			t.Fatal("outside source not ignored")
		}
	}
}

func TestExactMatchesGridDistanceOnHexagon(t *testing.T) {
	s := shapes.Hexagon(5)
	r := amoebot.WholeRegion(s)
	center, _ := s.Index(amoebot.Coord{})
	dist, _ := ExactExec(nil, r, []int32{center})
	for i := int32(0); i < int32(s.N()); i++ {
		if int(dist[i]) != s.Coord(center).Dist(s.Coord(i)) {
			t.Fatalf("node %d: BFS %d, grid %d", i, dist[i], s.Coord(center).Dist(s.Coord(i)))
		}
	}
}

func TestBFSForestIsValidForest(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		r := amoebot.WholeRegion(s)
		k := 1 + rng.Intn(4)
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := BFSForestExec(nil, &clock, r, sources)
		if err := f.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dist, _ := ExactExec(nil, r, sources)
		for i := int32(0); i < int32(s.N()); i++ {
			if !f.Member(i) {
				t.Fatalf("trial %d: node %d not covered", trial, i)
			}
			if int32(f.Depth(i)) != dist[i] {
				t.Fatalf("trial %d: node %d depth %d, dist %d", trial, i, f.Depth(i), dist[i])
			}
		}
		// Round count is the eccentricity plus the final silent layer.
		ecc := Eccentricity(r, sources)
		if clock.Rounds() != int64(ecc+1) {
			t.Fatalf("trial %d: rounds %d, ecc %d", trial, clock.Rounds(), ecc)
		}
	}
}

func TestEccentricityLine(t *testing.T) {
	s := shapes.Line(10)
	r := amoebot.WholeRegion(s)
	if got := Eccentricity(r, []int32{0}); got != 9 {
		t.Fatalf("ecc = %d", got)
	}
	if got := Eccentricity(r, []int32{5}); got != 5 {
		t.Fatalf("ecc from middle = %d", got)
	}
}
