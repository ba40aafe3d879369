package amoebot_test

import (
	"math/rand"
	"strings"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

// sameStructure reports whether the two structures have identical
// coordinate sets and adjacency tables.
func sameStructure(a, b *amoebot.Structure) bool {
	if a.N() != b.N() {
		return false
	}
	for i := int32(0); i < int32(a.N()); i++ {
		if a.Coord(i) != b.Coord(i) {
			return false
		}
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if a.Neighbor(i, d) != b.Neighbor(i, d) {
				return false
			}
		}
	}
	return true
}

// applyByRebuild is the ground truth for Apply: edit the coordinate set,
// rebuild from scratch, and validate in full.
func applyByRebuild(s *amoebot.Structure, d amoebot.Delta) (*amoebot.Structure, error) {
	drop := make(map[amoebot.Coord]bool, len(d.Remove))
	for _, c := range d.Remove {
		drop[c] = true
	}
	var coords []amoebot.Coord
	for _, c := range s.Coords() {
		if !drop[c] {
			coords = append(coords, c)
		}
	}
	coords = append(coords, d.Add...)
	ns, err := amoebot.NewStructure(coords)
	if err != nil {
		return nil, err
	}
	if err := ns.Validate(); err != nil {
		return nil, err
	}
	return ns, nil
}

func TestApplyAddRemove(t *testing.T) {
	s := shapes.Hexagon(3)
	// Grow a bump on the eastern boundary and shave the western tip.
	d := amoebot.Delta{
		Add:    []amoebot.Coord{amoebot.XZ(4, 0), amoebot.XZ(4, -1)},
		Remove: []amoebot.Coord{amoebot.XZ(-3, 0)},
	}
	got, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := applyByRebuild(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructure(got, want) {
		t.Fatal("Apply result differs from rebuilt structure")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N()+1 {
		t.Fatalf("got %d amoebots, want %d", got.N(), s.N()+1)
	}
	// The base structure is untouched.
	if !s.Occupied(amoebot.XZ(-3, 0)) || s.Occupied(amoebot.XZ(4, 0)) {
		t.Fatal("Apply mutated the receiver")
	}
}

func TestApplyEmptyDelta(t *testing.T) {
	s := shapes.Hexagon(2)
	got, err := s.Apply(amoebot.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatal("empty delta did not return the receiver")
	}
}

func TestApplyMove(t *testing.T) {
	s := shapes.Line(5)
	// Moving the tip east detaches it: (5,0)'s only structure neighbor is
	// the cell being vacated.
	if _, err := s.Apply(amoebot.Move(amoebot.XZ(4, 0), amoebot.XZ(5, 0))); err == nil {
		t.Fatal("detaching move accepted")
	}
	// Moving the tip to a cell that stays attached is fine.
	got, err := s.Apply(amoebot.Move(amoebot.XZ(4, 0), amoebot.XZ(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 5 || !got.Occupied(amoebot.XZ(3, 1)) || got.Occupied(amoebot.XZ(4, 0)) {
		t.Fatalf("move not applied: %v", got.Coords())
	}
}

func TestApplyMalformedDeltas(t *testing.T) {
	s := shapes.Line(3)
	cases := []struct {
		name string
		d    amoebot.Delta
	}{
		{"remove unoccupied", amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(9, 9)}}},
		{"remove twice", amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(2, 0), amoebot.XZ(2, 0)}}},
		{"add occupied", amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(1, 0)}}},
		{"add twice", amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(3, 0), amoebot.XZ(3, 0)}}},
		{"add invalid coord", amoebot.Delta{Add: []amoebot.Coord{{X: 1, Y: 1, Z: 1}}}},
		{"add and remove same", amoebot.Delta{
			Add:    []amoebot.Coord{amoebot.XZ(2, 0)},
			Remove: []amoebot.Coord{amoebot.XZ(2, 0)},
		}},
		{"remove everything", amoebot.Delta{
			Remove: []amoebot.Coord{amoebot.XZ(0, 0), amoebot.XZ(1, 0), amoebot.XZ(2, 0)},
		}},
		// The result would be one valid amoebot, but past the bound.
		{"add out of range", amoebot.Delta{
			Add:    []amoebot.Coord{amoebot.XZ(amoebot.MaxCoord+1, 0)},
			Remove: []amoebot.Coord{amoebot.XZ(0, 0), amoebot.XZ(1, 0), amoebot.XZ(2, 0)},
		}},
	}
	for _, tc := range cases {
		if _, err := s.Apply(tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestApplyRejectsInvalidResults(t *testing.T) {
	// Removing the center of a radius-1 hexagon leaves a 6-ring: one hole.
	hex := shapes.Hexagon(1)
	if _, err := hex.Apply(amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(0, 0)}}); err == nil {
		t.Error("hole-creating removal accepted")
	}
	// Removing the middle of a line disconnects it.
	line := shapes.Line(5)
	if _, err := line.Apply(amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(2, 0)}}); err == nil {
		t.Error("disconnecting removal accepted")
	}
	// Adding a far-away island disconnects the structure.
	if _, err := line.Apply(amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(40, 40)}}); err == nil {
		t.Error("island addition accepted")
	}
}

// TestApplyPeelFallback: a valid delta with no valid single-cell order —
// swapping the only bridge between two columns for a bridge two rows away.
// Removing the old bridge first disconnects; adding the new one first spans
// two boundary arcs. The peel gets stuck and Apply must fall back to the
// full connectivity pass, still accepting the delta.
func TestApplyPeelFallback(t *testing.T) {
	s := amoebot.MustStructure([]amoebot.Coord{
		amoebot.XZ(0, 0), amoebot.XZ(0, 1), amoebot.XZ(0, 2),
		amoebot.XZ(2, 0), amoebot.XZ(2, 1), amoebot.XZ(2, 2),
		amoebot.XZ(1, 0), // bridge
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := amoebot.Move(amoebot.XZ(1, 0), amoebot.XZ(1, 2))
	got, err := s.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := applyByRebuild(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStructure(got, want) {
		t.Fatal("fallback result differs from rebuilt structure")
	}
}

func TestValidateSingleAmoebot(t *testing.T) {
	s := amoebot.MustStructure([]amoebot.Coord{amoebot.XZ(0, 0)})
	if err := s.Validate(); err != nil {
		t.Fatalf("single amoebot invalid: %v", err)
	}
	// The last amoebot cannot be removed.
	if _, err := s.Apply(amoebot.Delta{Remove: []amoebot.Coord{amoebot.XZ(0, 0)}}); err == nil {
		t.Fatal("removal of the last amoebot accepted")
	}
}

func TestValidateDisconnectedPair(t *testing.T) {
	s := amoebot.MustStructure([]amoebot.Coord{amoebot.XZ(0, 0), amoebot.XZ(5, 5)})
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Fatalf("disconnected pair: %v", err)
	}
}

// TestValidatePinchedHole: two 6-rings sharing one amoebot — a figure
// eight whose two holes pinch at the shared cell. The Euler-characteristic
// count must see both holes.
func TestValidatePinchedHole(t *testing.T) {
	var coords []amoebot.Coord
	seen := make(map[amoebot.Coord]bool)
	for _, center := range []amoebot.Coord{amoebot.XZ(0, 0), amoebot.XZ(2, 0)} {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			c := center.Neighbor(d)
			if !seen[c] {
				seen[c] = true
				coords = append(coords, c)
			}
		}
	}
	s := amoebot.MustStructure(coords)
	if !s.IsConnected() {
		t.Fatal("figure eight not connected")
	}
	if h := s.Holes(); h != 2 {
		t.Fatalf("pinched figure eight has %d hole(s), want 2", h)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "hole") {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFingerprint(t *testing.T) {
	a := shapes.Hexagon(2)
	// Same cells in scrambled input order: same canonical fingerprint.
	coords := a.Coords()
	rand.New(rand.NewSource(1)).Shuffle(len(coords), func(i, j int) {
		coords[i], coords[j] = coords[j], coords[i]
	})
	b := amoebot.MustStructure(coords)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal structures have different fingerprints")
	}
	c, err := a.Apply(amoebot.Delta{Add: []amoebot.Coord{amoebot.XZ(3, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different structures share a fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
	// Full 64-bit coordinates are hashed: structures whose cells differ
	// only beyond 32 bits must not collide.
	lo := amoebot.MustStructure([]amoebot.Coord{amoebot.XZ(0, 0)})
	hi := amoebot.MustStructure([]amoebot.Coord{amoebot.XZ(1<<32, 0)})
	if lo.Fingerprint() == hi.Fingerprint() {
		t.Fatal("fingerprint truncates coordinates")
	}
}

// TestApplyDifferentialRandom drives Apply with random deltas — valid,
// hole-creating, disconnecting — and checks that its verdict and its
// structure agree exactly with rebuilding from scratch and running the
// full Validate, and that ApplyRemap's remap agrees with coordinate
// lookups. On success the chain continues from the mutated structure,
// exercising long delta sequences.
func TestApplyDifferentialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		s := shapes.RandomBlob(rng, 60)
		for step := 0; step < 120; step++ {
			d := randomDelta(rng, s)
			got, remap, gotErr := s.ApplyRemap(d)
			want, wantErr := applyByRebuild(s, d)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d: Apply err = %v, rebuild err = %v (delta %v)",
					seed, step, gotErr, wantErr, d)
			}
			if gotErr != nil {
				continue
			}
			if !sameStructure(got, want) {
				t.Fatalf("seed %d step %d: structures differ after %v", seed, step, d)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d step %d: accepted structure fails Validate: %v", seed, step, err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seed %d step %d: fingerprint mismatch", seed, step)
			}
			if d.IsEmpty() {
				if got != s || remap != nil {
					t.Fatalf("seed %d step %d: empty delta did not return the receiver with a nil remap", seed, step)
				}
			} else if err := amoebot.RemapErr(s, got, remap); err != nil {
				t.Fatalf("seed %d step %d: ApplyRemap(%v): %v", seed, step, d, err)
			}
			s = got
		}
	}
}

// TestApplyRemapAtIndexEnds applies a delta that removes the first and the
// last amoebot of the canonical order and adds a cell at both ends of one
// row, so the index segments are cut at 0, at n−1 and at both ends of
// that row: the result, its remap and its row table must agree with a
// rebuild.
func TestApplyRemapAtIndexEnds(t *testing.T) {
	s := shapes.Hexagon(3)
	n := int32(s.N())
	mid := s.Coord(n / 2) // on the middle row, which spans X −3..3
	d := amoebot.Delta{
		Remove: []amoebot.Coord{s.Coord(0), s.Coord(n - 1)},
		Add:    []amoebot.Coord{amoebot.XZ(-4, mid.Z), amoebot.XZ(4, mid.Z)},
	}
	got, remap, err := s.ApplyRemap(d)
	if err != nil {
		t.Fatalf("ApplyRemap(%v): %v", d, err)
	}
	want, err := applyByRebuild(s, d)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !sameStructure(got, want) {
		t.Fatal("structure differs from the rebuild")
	}
	if err := amoebot.RemapErr(s, got, remap); err != nil {
		t.Fatal(err)
	}
	if remap[0] != amoebot.None || remap[n-1] != amoebot.None || remap[1] != 0 {
		t.Fatalf("remap ends %d, %d, %d; want None, 0 and None", remap[0], remap[1], remap[n-1])
	}
	for _, c := range d.Add {
		if i, ok := got.Index(c); !ok || got.Coord(i) != c {
			t.Fatalf("added %v not found", c)
		}
	}
	for _, c := range d.Remove {
		if got.Occupied(c) {
			t.Fatalf("removed %v still occupied", c)
		}
	}
}

// randomDelta builds a small well-formed (but not necessarily
// validity-preserving) delta: random boundary-adjacent additions and
// random removals.
func randomDelta(rng *rand.Rand, s *amoebot.Structure) amoebot.Delta {
	var d amoebot.Delta
	adding := make(map[amoebot.Coord]bool)
	removing := make(map[amoebot.Coord]bool)
	for i, ops := 0, 1+rng.Intn(4); i < ops; i++ {
		anchor := s.Coord(int32(rng.Intn(s.N())))
		if rng.Intn(2) == 0 {
			c := anchor.Neighbor(amoebot.Direction(rng.Intn(int(amoebot.NumDirections))))
			if !s.Occupied(c) && !adding[c] {
				adding[c] = true
				d.Add = append(d.Add, c)
			}
		} else if !removing[anchor] && len(removing) < s.N()-1 {
			removing[anchor] = true
			d.Remove = append(d.Remove, anchor)
		}
	}
	return d
}

// TestFootprint: the footprint is exactly the delta cells plus their
// neighborhoods, deduped and in canonical order, and every cell outside it
// keeps its occupancy and full neighborhood across Apply.
func TestFootprint(t *testing.T) {
	if got := (amoebot.Delta{}).Footprint(); got.Size() != 0 {
		t.Fatalf("empty delta footprint has %d coords", got.Size())
	}
	rng := rand.New(rand.NewSource(61))
	s := shapes.RandomBlob(rng, 180)
	for trial := 0; trial < 20; trial++ {
		d := shapes.RandomDelta(rng, s, 4, 4)
		if d.IsEmpty() {
			continue
		}
		f := d.Footprint()
		in := make(map[amoebot.Coord]bool, f.Size())
		for i, c := range f.Coords {
			if in[c] {
				t.Fatalf("trial %d: duplicate footprint coord %v", trial, c)
			}
			in[c] = true
			if i > 0 {
				a, b := f.Coords[i-1], c
				if a.Z > b.Z || (a.Z == b.Z && a.X >= b.X) {
					t.Fatalf("trial %d: footprint not in canonical order at %d", trial, i)
				}
			}
		}
		// Membership: exactly cells of the delta and their neighbors.
		want := make(map[amoebot.Coord]bool)
		for _, cs := range [][]amoebot.Coord{d.Add, d.Remove} {
			for _, c := range cs {
				want[c] = true
				for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
					want[c.Neighbor(dir)] = true
				}
			}
		}
		if len(want) != f.Size() {
			t.Fatalf("trial %d: footprint size %d, want %d", trial, f.Size(), len(want))
		}
		for c := range want {
			if !in[c] {
				t.Fatalf("trial %d: footprint missing %v", trial, c)
			}
		}
		// Locality: outside the footprint, occupancy and neighborhoods are
		// untouched by the mutation.
		ns, err := s.Apply(d)
		if err != nil {
			continue // RandomDelta aims for validity; skip the rare miss
		}
		for _, c := range s.Coords() {
			if in[c] {
				continue
			}
			if !ns.Occupied(c) {
				t.Fatalf("trial %d: clean cell %v lost occupancy", trial, c)
			}
			for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
				n := c.Neighbor(dir)
				if s.Occupied(n) != ns.Occupied(n) {
					t.Fatalf("trial %d: clean cell %v neighborhood changed at %v", trial, c, n)
				}
			}
		}
	}
}
