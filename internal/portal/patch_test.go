package portal

import (
	"math/rand"
	"reflect"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

// specFor builds the PatchSpec for a delta the way the engine does: index
// remaps from coordinate lookups, footprint sets from Delta.Footprint.
func specFor(s, ns *amoebot.Structure, d amoebot.Delta) *PatchSpec {
	remap := make([]int32, s.N())
	for i := int32(0); i < int32(s.N()); i++ {
		if j, ok := ns.Index(s.Coord(i)); ok {
			remap[i] = j
		} else {
			remap[i] = -1
		}
	}
	var footOld, footNew []int32
	for _, c := range d.Footprint().Coords {
		if i, ok := s.Index(c); ok {
			footOld = append(footOld, i)
		}
		if i, ok := ns.Index(c); ok {
			footNew = append(footNew, i)
		}
	}
	return NewPatchSpec(amoebot.WholeRegion(ns), remap, footOld, footNew)
}

func requirePortalsEqual(t *testing.T, got, want *Portals, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(got.ID, want.ID) {
		t.Fatalf("%s: ID mismatch", ctx)
	}
	if !reflect.DeepEqual(got.off, want.off) {
		t.Fatalf("%s: off mismatch\n got %v\nwant %v", ctx, got.off, want.off)
	}
	if !reflect.DeepEqual(got.nodes, want.nodes) {
		t.Fatalf("%s: nodes mismatch", ctx)
	}
	if !reflect.DeepEqual(got.Nbr, want.Nbr) {
		t.Fatalf("%s: Nbr mismatch", ctx)
	}
	if !reflect.DeepEqual(got.conn, want.conn) {
		t.Fatalf("%s: conn mismatch\n got %v\nwant %v", ctx, got.conn, want.conn)
	}
}

// TestPatchMatchesCompute drives chains of random deltas, maintaining the
// decomposition of every axis exclusively through Patch, and asserts deep
// equality with a fresh Compute at every step — including patches of
// patches.
func TestPatchMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 12; trial++ {
		s := shapes.RandomBlob(rng, 60+rng.Intn(120))
		var cur [amoebot.NumAxes]*Portals
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			cur[axis] = Compute(amoebot.WholeRegion(s), axis)
		}
		for step := 0; step < 6; step++ {
			d := shapes.RandomDelta(rng, s, 1+rng.Intn(5), 1+rng.Intn(5))
			if d.IsEmpty() {
				continue
			}
			ns, err := s.Apply(d)
			if err != nil {
				t.Fatalf("trial %d step %d: apply: %v", trial, step, err)
			}
			sp := specFor(s, ns, d)
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				cur[axis] = cur[axis].Patch(sp)
				requirePortalsEqual(t, cur[axis], Compute(sp.Region, axis), "Patch")
			}
			s = ns
		}
	}
}
