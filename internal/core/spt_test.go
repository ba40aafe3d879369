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

func allNodes(s *amoebot.Structure) []int32 {
	out := make([]int32, s.N())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestSPTSingleDestinationLine(t *testing.T) {
	s := shapes.Line(8)
	r := amoebot.WholeRegion(s)
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, r, 0, []int32{7})
	if err := verify.Forest(s, []int32{0}, []int32{7}, f); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 8 {
		t.Fatalf("path tree size %d, want 8", f.Size())
	}
}

func TestSPTSSSPHexagon(t *testing.T) {
	s := shapes.Hexagon(6)
	r := amoebot.WholeRegion(s)
	center, _ := s.Index(amoebot.Coord{})
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, r, center, allNodes(s))
	if err := verify.Forest(s, []int32{center}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestSPTPrunesToDestinations(t *testing.T) {
	// Destinations on one corner: the tree must not span the whole shape.
	s := shapes.Parallelogram(10, 10)
	r := amoebot.WholeRegion(s)
	src, _ := s.Index(amoebot.XZ(0, 0))
	dst, _ := s.Index(amoebot.XZ(9, 0))
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, r, src, []int32{dst})
	if err := verify.Forest(s, []int32{src}, []int32{dst}, f); err != nil {
		t.Fatal(err)
	}
	if f.Size() >= s.N()/2 {
		t.Fatalf("tree size %d of %d: pruning ineffective", f.Size(), s.N())
	}
	// Every leaf must be the destination (or the source).
	ch := f.Children()
	for i := int32(0); i < int32(s.N()); i++ {
		if f.Member(i) && len(ch[i]) == 0 && i != dst && i != src {
			t.Fatalf("leaf %d is not a destination", i)
		}
	}
}

func TestSPTRandomStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(250))
		r := amoebot.WholeRegion(s)
		src := int32(rng.Intn(s.N()))
		l := 1 + rng.Intn(8)
		dests := shapes.RandomSubset(rng, s, l)
		var clock sim.Clock
		f := SPTEnv(testEnv(), &clock, r, src, dests)
		if err := verify.Forest(s, []int32{src}, dests, f); err != nil {
			t.Fatalf("trial %d (n=%d, ℓ=%d, src=%d): %v", trial, s.N(), l, src, err)
		}
	}
}

func TestSPTAllShapes(t *testing.T) {
	shapesList := map[string]*amoebot.Structure{
		"parallelogram": shapes.Parallelogram(9, 5),
		"triangle":      shapes.Triangle(9),
		"hexagon":       shapes.Hexagon(4),
		"comb":          shapes.Comb(5, 6),
		"staircase":     shapes.Staircase(3, 5, 3),
		"line":          shapes.Line(20),
	}
	rng := rand.New(rand.NewSource(5))
	for name, s := range shapesList {
		r := amoebot.WholeRegion(s)
		src := int32(rng.Intn(s.N()))
		dests := shapes.RandomSubset(rng, s, 1+rng.Intn(5))
		var clock sim.Clock
		f := SPTEnv(testEnv(), &clock, r, src, dests)
		if err := verify.Forest(s, []int32{src}, dests, f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSPTWithinSubRegion(t *testing.T) {
	// A C-shaped region inside a full parallelogram: paths must respect the
	// region, not the structure.
	s := shapes.Parallelogram(7, 5)
	var nodes []int32
	for i := int32(0); i < int32(s.N()); i++ {
		c := s.Coord(i)
		if c.Z == 2 && c.X >= 1 && c.X <= 6 {
			continue // cut a slot out of the middle row
		}
		nodes = append(nodes, i)
	}
	region := amoebot.NewRegion(s, nodes)
	if len(region.Components()) != 1 {
		t.Fatal("test region not connected")
	}
	src, _ := s.Index(amoebot.XZ(6, 0))
	dst, _ := s.Index(amoebot.XZ(6, 4))
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, region, src, []int32{dst})
	if err := verify.ForestInRegion(region, []int32{src}, []int32{dst}, f); err != nil {
		t.Fatal(err)
	}
	// The region detour is longer than the straight-line distance.
	if f.Depth(dst) <= int(s.Coord(src).Dist(s.Coord(dst))) {
		t.Fatalf("depth %d did not respect the region cut", f.Depth(dst))
	}
}

// TestSPTConstantRoundsSPSP verifies the O(1)-round claim for SPSP: the
// round count must not grow with n.
func TestSPTConstantRoundsSPSP(t *testing.T) {
	var small, large int64
	{
		s := shapes.Hexagon(4)
		r := amoebot.WholeRegion(s)
		var clock sim.Clock
		a, _ := s.Index(amoebot.XZ(-4, 0))
		b, _ := s.Index(amoebot.XZ(4, 0))
		SPTEnv(testEnv(), &clock, r, a, []int32{b})
		small = clock.Rounds()
	}
	{
		s := shapes.Hexagon(24)
		r := amoebot.WholeRegion(s)
		var clock sim.Clock
		a, _ := s.Index(amoebot.XZ(-24, 0))
		b, _ := s.Index(amoebot.XZ(24, 0))
		SPTEnv(testEnv(), &clock, r, a, []int32{b})
		large = clock.Rounds()
	}
	if small != large {
		t.Fatalf("SPSP rounds grew with n: %d -> %d", small, large)
	}
}

// TestSPTRoundsLogScaling: rounds grow with log ℓ, not with ℓ.
func TestSPTRoundsLogScaling(t *testing.T) {
	s := shapes.Hexagon(16)
	r := amoebot.WholeRegion(s)
	rng := rand.New(rand.NewSource(7))
	src := int32(0)
	r1 := func(l int) int64 {
		var clock sim.Clock
		SPTEnv(testEnv(), &clock, r, src, shapes.RandomSubset(rng, s, l))
		return clock.Rounds()
	}
	r16, r256 := r1(16), r1(256)
	if r256 > 2*r16 {
		t.Fatalf("rounds not logarithmic in ℓ: R(16)=%d R(256)=%d", r16, r256)
	}
}

func TestSPTBeatsBFSOnLargeDiameter(t *testing.T) {
	s := shapes.Comb(12, 30)
	r := amoebot.WholeRegion(s)
	src, _ := s.Index(amoebot.XZ(0, 30))  // tip of the first tooth
	dst, _ := s.Index(amoebot.XZ(22, 30)) // tip of the last tooth
	var sptClock, bfsClock sim.Clock
	f := SPTEnv(testEnv(), &sptClock, r, src, []int32{dst})
	if err := verify.Forest(s, []int32{src}, []int32{dst}, f); err != nil {
		t.Fatal(err)
	}
	baseline.BFSForestExec(nil, &bfsClock, r, []int32{src})
	if sptClock.Rounds() >= bfsClock.Rounds() {
		t.Fatalf("SPT (%d rounds) did not beat BFS (%d rounds) on a long comb",
			sptClock.Rounds(), bfsClock.Rounds())
	}
}
