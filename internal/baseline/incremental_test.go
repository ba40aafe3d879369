package baseline_test

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/baseline"
	"spforest/internal/shapes"
)

// migrate carries the exact distances of (s, srcs) over a delta the way
// the engine does: remap surviving entries to the new indexing, mark added
// cells Unknown, and hand RepairExact the neighbors of the removed cells.
func migrate(t *testing.T, s, ns *amoebot.Structure, d amoebot.Delta, dist []int32, srcs []amoebot.Coord) []int32 {
	t.Helper()
	nd := make([]int32, ns.N())
	for i := range nd {
		nd[i] = baseline.Unknown
	}
	for i := int32(0); i < int32(s.N()); i++ {
		if j, ok := ns.Index(s.Coord(i)); ok {
			nd[j] = dist[i]
		}
	}
	var suspects []int32
	for _, c := range d.Remove {
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			if j, ok := ns.Index(c.Neighbor(dir)); ok {
				suspects = append(suspects, j)
			}
		}
	}
	var added []int32
	for _, c := range d.Add {
		j, ok := ns.Index(c)
		if !ok {
			t.Fatalf("added coord %v missing", c)
		}
		added = append(added, j)
	}
	newSrcs := make([]int32, len(srcs))
	for i, c := range srcs {
		j, ok := ns.Index(c)
		if !ok {
			t.Fatalf("source %v removed by delta", c)
		}
		newSrcs[i] = j
	}
	baseline.RepairExact(amoebot.WholeRegion(ns), newSrcs, nd, suspects, added)
	return nd
}

// TestRepairExactMatchesFresh drives a long random mutation chain and
// checks after every step that the repaired distances equal a from-scratch
// multi-source BFS on the new structure.
func TestRepairExactMatchesFresh(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := shapes.RandomBlob(rng, 150)
		k := 3
		srcIdx := shapes.RandomSubset(rng, s, k)
		srcs := make([]amoebot.Coord, k)
		for i, idx := range srcIdx {
			srcs[i] = s.Coord(idx)
		}
		dist, _ := baseline.ExactExec(nil, amoebot.WholeRegion(s), srcIdx)
		for step := 0; step < 40; step++ {
			d := shapes.RandomDelta(rng, s, 1+rng.Intn(4), 1+rng.Intn(4), srcs...)
			if d.IsEmpty() {
				continue
			}
			ns, err := s.Apply(d)
			if err != nil {
				t.Fatalf("seed %d step %d: RandomDelta not applicable: %v", seed, step, err)
			}
			got := migrate(t, s, ns, d, dist, srcs)
			newSrcIdx := make([]int32, k)
			for i, c := range srcs {
				newSrcIdx[i], _ = ns.Index(c)
			}
			want, _ := baseline.ExactExec(nil, amoebot.WholeRegion(ns), newSrcIdx)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: node %d (%v): repaired %d, fresh %d",
						seed, step, i, ns.Coord(int32(i)), got[i], want[i])
				}
			}
			s, dist = ns, got
		}
	}
}

// TestRepairExactNoChange: a delta outside every shortest path reports
// zero writes beyond the added cells themselves.
func TestRepairExactNoChange(t *testing.T) {
	s := shapes.Parallelogram(8, 4)
	srcIdx := []int32{0}
	dist, _ := baseline.ExactExec(nil, amoebot.WholeRegion(s), srcIdx)

	// Growing a cell at the far corner cannot shorten any distance; the
	// repair must only assign the added cell itself.
	d := amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(8, 3)}}
	ns, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	nd := make([]int32, ns.N())
	for i := range nd {
		nd[i] = baseline.Unknown
	}
	for i := int32(0); i < int32(s.N()); i++ {
		j, _ := ns.Index(s.Coord(i))
		nd[j] = dist[i]
	}
	addedIdx, _ := ns.Index(amoebot.XZ(8, 3))
	src, _ := ns.Index(s.Coord(0))
	changed := baseline.RepairExact(amoebot.WholeRegion(ns), []int32{src}, nd, nil, []int32{addedIdx})
	if changed != 1 {
		t.Fatalf("repair wrote %d entries, want 1 (the added cell)", changed)
	}
	want, _ := baseline.ExactExec(nil, amoebot.WholeRegion(ns), []int32{src})
	for i := range want {
		if nd[i] != want[i] {
			t.Fatalf("node %d: repaired %d, fresh %d", i, nd[i], want[i])
		}
	}
}
