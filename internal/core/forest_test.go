package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

func TestForestTwoSourcesParallelogram(t *testing.T) {
	s := shapes.Parallelogram(10, 6)
	r := amoebot.WholeRegion(s)
	a, _ := s.Index(amoebot.XZ(0, 0))
	b, _ := s.Index(amoebot.XZ(9, 5))
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, []int32{a, b}, allNodes(s), a, ScheduleCentroid)
	if err := verify.Forest(s, []int32{a, b}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestSourcesOnOneRow(t *testing.T) {
	// All sources on a single portal: one Q' portal, line algorithm does
	// the heavy lifting.
	s := shapes.Parallelogram(12, 5)
	r := amoebot.WholeRegion(s)
	var sources []int32
	for _, x := range []int{0, 5, 11} {
		u, _ := s.Index(amoebot.XZ(x, 2))
		sources = append(sources, u)
	}
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestOnLineStructure(t *testing.T) {
	s := shapes.Line(20)
	r := amoebot.WholeRegion(s)
	sources := []int32{2, 9, 17}
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestHexagonManySources(t *testing.T) {
	s := shapes.Hexagon(6)
	r := amoebot.WholeRegion(s)
	rng := rand.New(rand.NewSource(151))
	sources := shapes.RandomSubset(rng, s, 8)
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestRandomBlobsRandomSources(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	for trial := 0; trial < 30; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(250))
		r := amoebot.WholeRegion(s)
		k := 2 + rng.Intn(7)
		if k > s.N() {
			k = s.N()
		}
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
		if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatalf("trial %d (n=%d, k=%d, sources=%v): %v", trial, s.N(), k, sources, err)
		}
	}
}

func TestForestWithDestinationsPrunes(t *testing.T) {
	s := shapes.Parallelogram(12, 8)
	r := amoebot.WholeRegion(s)
	rng := rand.New(rand.NewSource(157))
	sources := shapes.RandomSubset(rng, s, 4)
	dests := shapes.RandomSubset(rng, s, 3)
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, dests, sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, dests, f); err != nil {
		t.Fatal(err)
	}
	if f.Size() >= s.N() {
		t.Fatalf("forest with 3 destinations spans all %d nodes", s.N())
	}
}

func TestForestCombTeethSources(t *testing.T) {
	// Sources at the teeth tips: many portals, deep propagation.
	s := shapes.Comb(5, 8)
	r := amoebot.WholeRegion(s)
	var sources []int32
	for tooth := 0; tooth < 5; tooth++ {
		u, _ := s.Index(amoebot.XZ(2*tooth, 8))
		sources = append(sources, u)
	}
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestSequentialBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 10; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(120))
		r := amoebot.WholeRegion(s)
		k := 2 + rng.Intn(4)
		if k > s.N() {
			k = s.N()
		}
		sources := shapes.RandomSubset(rng, s, k)
		var clock sim.Clock
		f := ForestSequentialEnv(testEnv(), &clock, r, sources, allNodes(s))
		if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestForestMatchesSequentialDistances(t *testing.T) {
	// Both algorithms must produce forests with identical depths (the
	// trees may differ, distances may not).
	rng := rand.New(rand.NewSource(167))
	s := shapes.RandomBlob(rng, 150)
	r := amoebot.WholeRegion(s)
	sources := shapes.RandomSubset(rng, s, 5)
	var c1, c2 sim.Clock
	f1 := ForestEnv(testEnv(), &c1, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	f2 := ForestSequentialEnv(testEnv(), &c2, r, sources, allNodes(s))
	for i := int32(0); i < int32(s.N()); i++ {
		if f1.Depth(i) != f2.Depth(i) {
			t.Fatalf("node %d: D&C depth %d, sequential depth %d", i, f1.Depth(i), f2.Depth(i))
		}
	}
}

func TestForestSingleSourceDelegatesToSPT(t *testing.T) {
	s := shapes.Hexagon(3)
	r := amoebot.WholeRegion(s)
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, []int32{5}, allNodes(s), 5, ScheduleCentroid)
	if err := verify.Forest(s, []int32{5}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestAdjacentSourceRows(t *testing.T) {
	// Two stacked source rows: portal-pair regions with no blobs.
	s := shapes.Parallelogram(8, 2)
	r := amoebot.WholeRegion(s)
	a, _ := s.Index(amoebot.XZ(1, 0))
	b, _ := s.Index(amoebot.XZ(6, 1))
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, []int32{a, b}, allNodes(s), a, ScheduleCentroid)
	if err := verify.Forest(s, []int32{a, b}, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

func TestForestManySourcesSameRegion(t *testing.T) {
	// Sources clustered on neighboring rows exercise mark-based pairing.
	s := shapes.Parallelogram(16, 10)
	r := amoebot.WholeRegion(s)
	var sources []int32
	for _, xz := range [][2]int{{0, 4}, {5, 4}, {10, 4}, {15, 4}, {3, 7}, {12, 7}} {
		u, _ := s.Index(amoebot.XZ(xz[0], xz[1]))
		sources = append(sources, u)
	}
	var clock sim.Clock
	f := ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
		t.Fatal(err)
	}
}

// TestLabelColumnsReturnClean: the forest path hands every label column
// back to forestLabels with the labels it wrote cleared. After a run of
// forest queries on a 3,000-amoebot blob, every column the pool hands out
// reads 0 up to its capacity, and one at least is a recycled one (a fresh
// column from Take(1) has capacity 1). The race detector makes sync.Pool
// drop a random quarter of its puts, so the last check skips under it.
func TestLabelColumnsReturnClean(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	s := shapes.RandomBlob(rng, 3000)
	r := amoebot.WholeRegion(s)
	for trial := 0; trial < 4; trial++ {
		sources := shapes.RandomSubset(rng, s, 4+4*trial)
		var clock sim.Clock
		ForestEnv(testEnv(), &clock, r, sources, allNodes(s), sources[0], ScheduleCentroid)
	}
	recycled := 0
	var cols [][]int32
	for i := 0; i < 64; i++ {
		col := forestLabels.Take(1)
		cols = append(cols, col)
		if cap(col) > 1 {
			recycled++
		}
		for u, l := range col[:cap(col)] {
			if l != 0 {
				t.Fatalf("pooled label column %d holds label %d at node %d", i, l, u)
			}
		}
	}
	for _, col := range cols {
		forestLabels.Put(col, nil)
	}
	if recycled == 0 && !raceEnabled {
		t.Fatal("no label column came back to the pool")
	}
}

// TestExtendAlongPortalLabelsBothWays: extendAlongPortal gives the
// uncovered amoebots of a run parents towards the covered stretch from
// both of its ends, and labels each of them with its depth + 1. The
// forest queries of the label oracle reach the branch only with uncovered
// amoebots east of the covered ones, so this pins the western end too.
func TestExtendAlongPortalLabelsBothWays(t *testing.T) {
	s := shapes.Line(12)
	chain := chainOf(s)
	f, label := amoebot.NewForest(s), make([]int32, s.N())
	var clock sim.Clock
	lineForest(testEnv(), &clock, s, chain[4:8], chain[5:6], f, label)
	st := &regionState{region: amoebot.NewRegion(s, chain[4:8]), forest: f, label: label}
	extendAlongPortal(testEnv().Arena(), &clock, st, chain)
	if err := verify.Forest(s, chain[5:6], allNodes(s), f); err != nil {
		t.Fatal(err)
	}
	for _, u := range chain {
		if want := int32(f.Depth(u)) + 1; label[u] != want {
			t.Fatalf("node %d: label %d, depth + 1 = %d", u, label[u], want)
		}
	}
}
