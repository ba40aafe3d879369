package verify

import (
	"math/rand"
	"strings"
	"testing"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// validForest builds a correct S-forest via the BFS baseline.
func validForest(s *amoebot.Structure, sources []int32) *amoebot.Forest {
	var clock sim.Clock
	return baseline.BFSForestExec(nil, &clock, amoebot.WholeRegion(s), sources)
}

func allNodes(s *amoebot.Structure) []int32 {
	out := make([]int32, s.N())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestAcceptsValidForest(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		s := shapes.RandomBlob(rng, 40+rng.Intn(100))
		sources := shapes.RandomSubset(rng, s, 1+rng.Intn(3))
		f := validForest(s, sources)
		if err := Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatalf("trial %d: valid forest rejected: %v", trial, err)
		}
	}
}

func TestRejectsMissingDestination(t *testing.T) {
	s := shapes.Hexagon(3)
	sources := []int32{0}
	f := validForest(s, sources)
	victim := int32(s.N() - 1)
	f.Remove(victim)
	err := Forest(s, sources, allNodes(s), f)
	if err == nil {
		t.Fatal("forest with uncovered destination accepted")
	}
}

func TestRejectsWrongParent(t *testing.T) {
	s := shapes.Line(6)
	f := validForest(s, []int32{0})
	// Point node 2 at node 3 (away from the source): depth becomes wrong.
	f.SetParent(2, 3)
	if err := Forest(s, []int32{0}, allNodes(s), f); err == nil {
		t.Fatal("non-shortest parent accepted")
	}
}

func TestRejectsCycle(t *testing.T) {
	s := shapes.Line(6)
	f := validForest(s, []int32{0})
	f.SetParent(4, 5)
	f.SetParent(5, 4)
	if err := Forest(s, []int32{0}, allNodes(s), f); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestRejectsNonSourceRoot(t *testing.T) {
	s := shapes.Line(6)
	f := validForest(s, []int32{0})
	f.SetRoot(3)
	if err := Forest(s, []int32{0}, allNodes(s), f); err == nil {
		t.Fatal("non-source root accepted")
	}
}

func TestRejectsMissingSource(t *testing.T) {
	s := shapes.Line(6)
	f := amoebot.NewForest(s) // completely empty forest
	err := Forest(s, []int32{0}, nil, f)
	if err == nil || !strings.Contains(err.Error(), "property 1") {
		t.Fatalf("missing source not flagged as property 1: %v", err)
	}
}

func TestRejectsStrayLeaf(t *testing.T) {
	// D = {5} only; a correct pruned tree is the path 0..5. A branch leaf
	// outside D must be rejected (property 2).
	s := shapes.Parallelogram(6, 2)
	src, _ := s.Index(amoebot.XZ(0, 0))
	dst, _ := s.Index(amoebot.XZ(5, 0))
	f := amoebot.NewForest(s)
	f.SetRoot(src)
	for x := 1; x <= 5; x++ {
		u, _ := s.Index(amoebot.XZ(x, 0))
		p, _ := s.Index(amoebot.XZ(x-1, 0))
		f.SetParent(u, p)
	}
	if err := Forest(s, []int32{src}, []int32{dst}, f); err != nil {
		t.Fatalf("clean path rejected: %v", err)
	}
	stray, _ := s.Index(amoebot.XZ(0, 1))
	f.SetParent(stray, src)
	if err := Forest(s, []int32{src}, []int32{dst}, f); err == nil {
		t.Fatal("stray non-destination leaf accepted (property 2)")
	}
}

func TestRejectsFarRoot(t *testing.T) {
	// Node assigned to a farther source's tree violates property 5.
	s := shapes.Line(7)
	f := validForest(s, []int32{0, 6})
	// Node 1 is nearest to source 0; rewire it into source 6's tree with
	// correct adjacency but wrong depth.
	f.SetParent(1, 2)
	f.SetParent(2, 3)
	f.SetParent(3, 4)
	f.SetParent(4, 5)
	if err := Forest(s, []int32{0, 6}, allNodes(s), f); err == nil {
		t.Fatal("far-root assignment accepted")
	}
}

func TestRegionRelativeVerification(t *testing.T) {
	// A forest valid inside a sub-region must verify there even though the
	// full structure would offer shortcuts.
	s := shapes.Parallelogram(5, 3)
	var nodes []int32
	for i := int32(0); i < int32(s.N()); i++ {
		if s.Coord(i).Z == 0 {
			nodes = append(nodes, i)
		}
	}
	region := amoebot.NewRegion(s, nodes)
	src := nodes[0]
	f := amoebot.NewForest(s)
	f.SetRoot(src)
	for i := 1; i < len(nodes); i++ {
		f.SetParent(nodes[i], nodes[i-1])
	}
	if err := ForestInRegion(region, []int32{src}, nodes, f); err != nil {
		t.Fatalf("region-relative forest rejected: %v", err)
	}
	// The same forest must fail if a member lies outside the region.
	outside, _ := s.Index(amoebot.XZ(0, 1))
	f.SetParent(outside, src)
	if err := ForestInRegion(region, []int32{src}, nodes, f); err == nil {
		t.Fatal("member outside region accepted")
	}
}

func TestRejectsNoSources(t *testing.T) {
	s := shapes.Line(3)
	f := amoebot.NewForest(s)
	if err := Forest(s, nil, nil, f); err == nil {
		t.Fatal("empty source set accepted")
	}
}
