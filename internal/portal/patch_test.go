package portal

import (
	"math/rand"
	"reflect"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

// specFor builds the PatchSpec for a delta the way the engine does, with
// the index remap from coordinate lookups and the footprint sets from
// Delta.Footprint.
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
	return &PatchSpec{Region: amoebot.WholeRegion(ns), Remap: remap, FootOld: footOld, FootNew: footNew}
}

// requirePortalsEqual deep-compares two decompositions: ID, off, nodes,
// Nbr and the crossing edges.
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
	if !reflect.DeepEqual(got.via, want.via) || !reflect.DeepEqual(got.nbrOff, want.nbrOff) {
		t.Fatalf("%s: crossing edges mismatch\n got %v %v\nwant %v %v", ctx, got.nbrOff, got.via, want.nbrOff, want.via)
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

// gappedBlob returns a random blob with a row of several x-portals.
func gappedBlob(t *testing.T, rng *rand.Rand) *amoebot.Structure {
	t.Helper()
	for try := 0; try < 20; try++ {
		s := shapes.RandomBlob(rng, 150)
		rows := map[int]bool{}
		for _, c := range s.Coords() {
			rows[c.Z] = true
		}
		if Compute(amoebot.WholeRegion(s), amoebot.AxisX).Len() > len(rows) {
			return s
		}
	}
	t.Fatal("no random blob with a gapped row")
	return nil
}

// TestPatchMatchesComputeOnMovingStructures maintains every axis through
// Patch along translate-front and grow-tail chains in all six directions,
// on Hexagon(12) and on a random blob whose rows have gaps, and
// deep-compares each step with a fresh Compute. Moving fronts put delta
// positions at row ends and at both ends of the index range, where the
// segments of Structure.ApplyRemap start and stop; the test asserts that
// the chains reached all four index ends.
func TestPatchMatchesComputeOnMovingStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	bases := []struct {
		name string
		s    *amoebot.Structure
	}{{"hexagon12", shapes.Hexagon(12)}, {"gapped blob", gappedBlob(t, rng)}}
	var removedFirst, removedLast, addedFirst, addedLast int
	for _, base := range bases {
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			for _, tail := range []bool{false, true} {
				s := base.s
				var cur [amoebot.NumAxes]*Portals
				for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
					cur[axis] = Compute(amoebot.WholeRegion(s), axis)
				}
				adds, removes := 6, 6
				if tail {
					adds, removes = 5, 1
				}
				for step := 0; step < 8; step++ {
					d := shapes.DirectedDelta(rng, s, dir, adds, removes, tail)
					if d.IsEmpty() {
						continue
					}
					ns, remap, err := s.ApplyRemap(d)
					if err != nil {
						t.Fatalf("%s dir %v tail %v step %d: apply: %v", base.name, dir, tail, step, err)
					}
					sp := specFor(s, ns, d)
					if !reflect.DeepEqual(remap, sp.Remap) {
						t.Fatalf("%s dir %v tail %v step %d: ApplyRemap's remap differs from coordinate lookups", base.name, dir, tail, step)
					}
					for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
						cur[axis] = cur[axis].Patch(sp)
						fresh := Compute(sp.Region, axis)
						requirePortalsEqual(t, cur[axis], fresh, base.name+" "+dir.String()+" "+axis.String())
						requireTreeEdgeRule(t, fresh, base.name+" "+dir.String()+" "+axis.String())
					}
					if remap[0] == amoebot.None {
						removedFirst++
					}
					if remap[s.N()-1] == amoebot.None {
						removedLast++
					}
					if !s.Occupied(ns.Coord(0)) {
						addedFirst++
					}
					if !s.Occupied(ns.Coord(int32(ns.N() - 1))) {
						addedLast++
					}
					s = ns
				}
			}
		}
	}
	t.Logf("steps removing index 0: %d, index n-1: %d; adding at index 0: %d, at n-1: %d",
		removedFirst, removedLast, addedFirst, addedLast)
	if removedFirst == 0 || removedLast == 0 || addedFirst == 0 || addedLast == 0 {
		t.Fatal("the chains missed an end of the index range")
	}
}
