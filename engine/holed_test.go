package engine_test

import (
	"strings"
	"testing"

	"spforest"
	"spforest/amoebot"
	"spforest/engine"
)

// TestHoleTolerantRegistry: exactly the two precondition-free baselines
// declare hole tolerance.
func TestHoleTolerantRegistry(t *testing.T) {
	want := map[string]bool{
		engine.AlgoBFS:        true,
		engine.AlgoExact:      true,
		engine.AlgoForest:     false,
		engine.AlgoSPT:        false,
		engine.AlgoSPSP:       false,
		engine.AlgoSSSP:       false,
		engine.AlgoSequential: false,
	}
	for name, tolerant := range want {
		if got := engine.HoleTolerant(name); got != tolerant {
			t.Errorf("HoleTolerant(%q) = %v, want %v", name, got, tolerant)
		}
	}
	if engine.HoleTolerant("no-such-algo") {
		t.Error("unknown solver reported hole-tolerant")
	}
	names := engine.HoleTolerantSolvers()
	if len(names) != 2 || names[0] != engine.AlgoBFS || names[1] != engine.AlgoExact {
		t.Errorf("HoleTolerantSolvers() = %v", names)
	}
}

// TestAllowHolesAdmitsHoledStructures: with AllowHoles the engine binds to
// a holed structure, the hole-tolerant solvers agree with the memoized
// exact distances, and the portal-based solvers and the base-region split
// fail with a precondition error instead of panicking inside the portal
// machinery.
func TestAllowHolesAdmitsHoledStructures(t *testing.T) {
	s := spforest.RandomHoledBlob(21, 150, 3)
	if _, err := engine.New(s, nil); err == nil {
		t.Fatal("holed structure accepted without AllowHoles")
	}
	e, err := engine.New(s, &engine.Config{AllowHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Holed() {
		t.Fatal("engine does not report holes")
	}
	sources := spforest.RandomCoords(3, s, 2)
	dist, err := e.Distances(sources)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{engine.AlgoBFS, engine.AlgoExact} {
		res, err := e.Run(engine.Query{Algo: algo, Sources: sources, Dests: s.Coords()})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := e.Verify(sources, s.Coords(), res.Forest); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for i := int32(0); i < int32(s.N()); i++ {
			if res.Forest.Depth(i) != dist[i] {
				t.Fatalf("%s: depth %d != exact distance %d at node %d",
					algo, res.Forest.Depth(i), dist[i], i)
			}
		}
	}
	for _, algo := range []string{
		engine.AlgoForest, engine.AlgoSPT, engine.AlgoSSSP, engine.AlgoSequential,
	} {
		_, err := e.Run(engine.Query{Algo: algo, Sources: sources[:1], Dests: s.Coords()})
		if err == nil || !strings.Contains(err.Error(), "hole-free") {
			t.Fatalf("%s on holed structure: err = %v, want hole-free precondition error", algo, err)
		}
	}
	if _, err := e.BaseRegions(sources); err == nil || !strings.Contains(err.Error(), "hole-free") {
		t.Fatalf("BaseRegions on holed structure: err = %v, want hole-free precondition error", err)
	}
}

// TestAllowHolesStillRequiresConnectivity: AllowHoles relaxes only the
// hole-freeness half of the precondition.
func TestAllowHolesStillRequiresConnectivity(t *testing.T) {
	two := amoebot.MustStructure([]amoebot.Coord{amoebot.XZ(0, 0), amoebot.XZ(5, 5)})
	if _, err := engine.New(two, &engine.Config{AllowHoles: true}); err == nil {
		t.Fatal("disconnected structure accepted under AllowHoles")
	}
}

// TestAllowHolesOnHoleFree: the flag is a no-op on valid structures — all
// solvers keep running.
func TestAllowHolesOnHoleFree(t *testing.T) {
	s := spforest.Hexagon(3)
	e, err := engine.New(s, &engine.Config{AllowHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Holed() {
		t.Fatal("hole-free engine reports holes")
	}
	res, err := e.Run(engine.Query{Algo: engine.AlgoForest,
		Sources: s.Coords()[:1], Dests: s.Coords()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(s.Coords()[:1], s.Coords(), res.Forest); err != nil {
		t.Fatal(err)
	}
}

// TestHoledLeaderElection: the randomized election of Theorem 2 does not
// use portals and stays correct on holed structures, so Leader works on a
// holed engine too.
func TestHoledLeaderElection(t *testing.T) {
	s := spforest.RandomHoledBlob(22, 120, 2)
	e, err := engine.New(s, &engine.Config{AllowHoles: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ldr, stats := e.Leader()
	if !s.Occupied(ldr) {
		t.Fatal("leader not in structure")
	}
	if stats.Rounds == 0 {
		t.Fatal("election charged no rounds")
	}
	ldr2, _ := e.Leader()
	if ldr2 != ldr {
		t.Fatal("leader not memoized")
	}
}

// TestHoledApplyRejected: Apply chains require hole-free results, so a
// holed engine cannot derive successors.
func TestHoledApplyRejected(t *testing.T) {
	s := spforest.RandomHoledBlob(23, 100, 1)
	e, err := engine.New(s, &engine.Config{AllowHoles: true})
	if err != nil {
		t.Fatal(err)
	}
	grow := amoebot.Delta{Add: []amoebot.Coord{pickEmptyNeighbor(s)}}
	if _, err := e.Apply(grow); err == nil {
		t.Fatal("Apply on a holed engine succeeded")
	}
}

// pickEmptyNeighbor returns some unoccupied cell adjacent to the structure.
func pickEmptyNeighbor(s *amoebot.Structure) amoebot.Coord {
	for _, c := range s.Coords() {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if n := c.Neighbor(d); !s.Occupied(n) {
				return n
			}
		}
	}
	panic("structure fills the plane")
}
