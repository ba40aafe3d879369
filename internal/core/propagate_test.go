package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// propagateSetup picks an x-portal P of the structure, builds a valid
// S-forest of A∪P (sources in A∪P) with the BFS reference, and returns
// everything needed to call Propagate towards `into`.
func propagateSetup(t *testing.T, rng *rand.Rand, s *amoebot.Structure, portalIdx int, k int, into amoebot.Side) (region *amoebot.Region, pnodes, sources []int32, f *amoebot.Forest, ok bool) {
	t.Helper()
	region = amoebot.WholeRegion(s)
	ports := portal.Compute(region, amoebot.AxisX)
	if portalIdx >= ports.Len() {
		return nil, nil, nil, nil, false
	}
	pnodes = ports.NodesOf(int32(portalIdx))
	inP := dense.NewBitSet(s.N())
	for _, p := range pnodes {
		inP.Add(p)
	}
	// A∪P = region minus the components on the `into` side (the exact set
	// Propagate will extend into).
	b := splitSides(nil, region, inP)[into]
	if len(b) == 0 {
		return nil, nil, nil, nil, false // nothing to propagate into
	}
	inB := make(map[int32]bool, len(b))
	for _, u := range b {
		inB[u] = true
	}
	var apNodes []int32
	for i := int32(0); i < int32(s.N()); i++ {
		if !inB[i] {
			apNodes = append(apNodes, i)
		}
	}
	ap := amoebot.NewRegion(s, apNodes)
	if !ap.IsConnected() {
		return nil, nil, nil, nil, false
	}
	// Pick k sources within A∪P.
	nodes := ap.Nodes()
	perm := rng.Perm(len(nodes))
	for i := 0; i < k && i < len(nodes); i++ {
		sources = append(sources, nodes[perm[i]])
	}
	var clock sim.Clock
	f = baseline.BFSForestExec(nil, &clock, ap, sources)
	return region, pnodes, sources, f, true
}

func TestPropagateParallelogramSouth(t *testing.T) {
	s := shapes.Parallelogram(8, 6)
	rng := rand.New(rand.NewSource(131))
	region, pnodes, sources, f, ok := propagateSetup(t, rng, s, 2, 2, amoebot.SideB)
	if !ok {
		t.Fatal("setup failed")
	}
	var clock sim.Clock
	out := PropagateEnv(testEnv(), &clock, region, pnodes, f, amoebot.SideB)
	if err := verify.Forest(s, sources, allNodes(s), out); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateBothSides(t *testing.T) {
	s := shapes.Hexagon(5)
	rng := rand.New(rand.NewSource(133))
	for _, into := range []amoebot.Side{amoebot.SideA, amoebot.SideB} {
		region, pnodes, sources, f, ok := propagateSetup(t, rng, s, 5, 3, into)
		if !ok {
			t.Fatalf("setup failed for side %d", into)
		}
		var clock sim.Clock
		out := PropagateEnv(testEnv(), &clock, region, pnodes, f, into)
		if err := verify.Forest(s, sources, allNodes(s), out); err != nil {
			t.Fatalf("side %d: %v", into, err)
		}
	}
}

func TestPropagateCombNeedsPhase2(t *testing.T) {
	// Sources on the comb spine, propagate south into the teeth: each tooth
	// is a separate component of B, most of it invisible from the spine.
	s := shapes.Comb(6, 10)
	region := amoebot.WholeRegion(s)
	ports := portal.Compute(region, amoebot.AxisX)
	// The spine is the longest portal.
	spine := int32(0)
	for id := int32(0); id < int32(ports.Len()); id++ {
		if len(ports.NodesOf(id)) > len(ports.NodesOf(spine)) {
			spine = id
		}
	}
	pnodes := ports.NodesOf(spine)
	sources := []int32{pnodes[0], pnodes[len(pnodes)-1]}
	var clock sim.Clock
	f := baseline.BFSForestExec(nil, &clock, amoebot.NewRegion(s, pnodes), sources)
	out := PropagateEnv(testEnv(), &clock, region, pnodes, f, amoebot.SideB)
	if err := verify.Forest(s, sources, allNodes(s), out); err != nil {
		t.Fatal(err)
	}
}

func TestPropagateRandomBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	trials := 0
	for trials < 30 {
		s := shapes.RandomBlob(rng, 40+rng.Intn(200))
		side := amoebot.Side(rng.Intn(2))
		region, pnodes, sources, f, ok := propagateSetup(
			t, rng, s, rng.Intn(12), 1+rng.Intn(3), side)
		if !ok {
			continue
		}
		trials++
		var clock sim.Clock
		out := PropagateEnv(testEnv(), &clock, region, pnodes, f, side)
		if err := verify.Forest(s, sources, allNodes(s), out); err != nil {
			t.Fatalf("trial %d (n=%d, |P|=%d, side=%d): %v",
				trials, s.N(), len(pnodes), side, err)
		}
	}
}

func TestPropagateEmptyForest(t *testing.T) {
	s := shapes.Parallelogram(5, 4)
	region := amoebot.WholeRegion(s)
	ports := portal.Compute(region, amoebot.AxisX)
	empty := amoebot.NewForest(s)
	var clock sim.Clock
	out := PropagateEnv(testEnv(), &clock, region, ports.NodesOf(0), empty, amoebot.SideB)
	if out.Size() != 0 {
		t.Fatal("empty forest propagated to a non-empty forest")
	}
}

// TestPropagateEnvRejectsRegionsWithoutSides: PropagateEnv finds B by a
// search over the components of region \ P, which must each touch P from
// exactly one side. A ring around a hole, cut once by P, touches P from
// both sides; a component away from P touches it from neither.
func TestPropagateEnvRejectsRegionsWithoutSides(t *testing.T) {
	s := shapes.Hexagon(3)
	node := func(x, z int) int32 {
		u, ok := s.Index(amoebot.XZ(x, z))
		if !ok {
			t.Fatalf("no amoebot at (%d, %d)", x, z)
		}
		return u
	}
	// The ring: the amoebots at distance 2 or 3 from the center. Its middle
	// row splits into two runs; P is the western one.
	var ring []int32
	for u := int32(0); u < int32(s.N()); u++ {
		if s.Coord(u).Dist(amoebot.Coord{}) >= 2 {
			ring = append(ring, u)
		}
	}
	ringP := []int32{node(-3, 0), node(-2, 0)}
	// Away: P is the middle row; the region adds the row south of it and
	// the row three south of it, which no P amoebot neighbors.
	var away []int32
	for u := int32(0); u < int32(s.N()); u++ {
		if z := s.Coord(u).Z; z == 0 || z == 1 || z == 3 {
			away = append(away, u)
		}
	}
	var rowP []int32
	for x := -3; x <= 3; x++ {
		rowP = append(rowP, node(x, 0))
	}
	for _, bad := range []struct {
		name, want    string
		nodes, pnodes []int32
	}{
		{"ring around a hole", "touches the portal from both sides", ring, ringP},
		{"component away from P", "not adjacent to the portal", away, rowP},
	} {
		region := amoebot.NewRegion(s, bad.nodes)
		f := amoebot.NewForest(s)
		f.SetRoot(bad.pnodes[0])
		for _, into := range []amoebot.Side{amoebot.SideA, amoebot.SideB} {
			var clock sim.Clock
			mustPanicWith(t, "PropagateEnv "+bad.name, bad.want, func() { PropagateEnv(testEnv(), &clock, region, bad.pnodes, f, into) })
		}
	}
}

// TestPropagateRejectsUncoveredPortal: an amoebot of B that sees P takes
// its parent towards P and that parent's label + 1, so propagation panics
// when the forest leaves the P amoebot it sees unlabelled, instead of
// writing a label no walk would find. Here f is a single root at the
// western end of a middle row P, so the rest of P is uncovered.
func TestPropagateRejectsUncoveredPortal(t *testing.T) {
	s := shapes.Parallelogram(6, 4)
	region := amoebot.WholeRegion(s)
	var pnodes []int32
	for x := 0; x < 6; x++ {
		u, _ := s.Index(amoebot.XZ(x, 1))
		pnodes = append(pnodes, u)
	}
	f := amoebot.NewForest(s)
	f.SetRoot(pnodes[0])
	var clock sim.Clock
	mustPanicWith(t, "PropagateEnv over an uncovered P", "does not cover P", func() { PropagateEnv(testEnv(), &clock, region, pnodes, f, amoebot.SideB) })
}
