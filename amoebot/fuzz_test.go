package amoebot

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// fuzzCoords decodes a byte stream into grid coordinates, two bytes per
// cell interpreted as int8 axial offsets — small enough that the
// flood-fill cross-check's bounding box stays tiny.
func fuzzCoords(data []byte) []Coord {
	var cs []Coord
	seen := make(map[Coord]bool)
	for i := 0; i+1 < len(data); i += 2 {
		c := XZ(int(int8(data[i])), int(int8(data[i+1])))
		if !seen[c] {
			seen[c] = true
			cs = append(cs, c)
		}
	}
	return cs
}

// FuzzValidate differentially tests the O(n) Euler-characteristic hole
// counter and the connectivity check against the brute-force flood fill on
// arbitrary coordinate sets: Holes must equal holesByFloodFill and
// Validate must succeed exactly on connected hole-free inputs. It also
// checks the row table against a map oracle (see checkIndexOracle); the
// int8 coordinates give gapped rows, gap-free rows and one-row structures.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1})                         // small triangle
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 2, 1, 0, 2, 1, 2}) // ring with hole
	f.Add([]byte{0, 0, 5, 5})                               // disconnected pair
	f.Add([]byte{1, 255, 255, 1, 0, 0, 254, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		cs := fuzzCoords(data)
		if len(cs) == 0 {
			return
		}
		s, err := NewStructure(cs)
		if err != nil {
			t.Fatalf("NewStructure rejected deduplicated valid coords: %v", err)
		}
		checkIndexOracle(t, s, cs)
		holes := s.Holes()
		if brute := s.holesByFloodFill(); holes != brute {
			t.Fatalf("Holes() = %d, flood fill says %d (n=%d)", holes, brute, s.N())
		}
		connected := s.IsConnected()
		err = s.Validate()
		if wantOK := connected && holes == 0; (err == nil) != wantOK {
			t.Fatalf("Validate() = %v with connected=%v holes=%d", err, connected, holes)
		}
	})
}

// checkIndexOracle checks the row table against one read cell by cell,
// and Index and Occupied against a map from each input cell to its rank in
// canonical order, on every cell of the padded bounding box, and checks
// that each amoebot's X and Z with a wrong Y miss.
func checkIndexOracle(t *testing.T, s *Structure, cs []Coord) {
	t.Helper()
	sorted := slices.Clone(cs)
	sort.Slice(sorted, func(i, j int) bool { return lessCoord(sorted[i], sorted[j]) })
	var rowZ []int
	var rowOff []int32
	for i, c := range sorted {
		if i == 0 || c.Z != sorted[i-1].Z {
			rowZ, rowOff = append(rowZ, c.Z), append(rowOff, int32(i))
		}
	}
	rowOff = append(rowOff, int32(len(sorted)))
	if !slices.Equal(s.rowZ, rowZ) || !slices.Equal(s.rowOff, rowOff) {
		t.Fatalf("row table Z %v at %v; cell by cell %v at %v", s.rowZ, s.rowOff, rowZ, rowOff)
	}
	want := make(map[Coord]int32, len(sorted))
	for i, c := range sorted {
		want[c] = int32(i)
	}
	minX, maxX, minZ, maxZ := s.Bounds()
	for z := minZ - 1; z <= maxZ+1; z++ {
		for x := minX - 1; x <= maxX+1; x++ {
			c := XZ(x, z)
			wi, wok := want[c]
			if !wok {
				wi = None
			}
			if i, ok := s.Index(c); i != wi || ok != wok || s.Occupied(c) != wok {
				t.Fatalf("Index(%v) = %d, %v; the map says %d, %v", c, i, ok, wi, wok)
			}
		}
	}
	for _, c := range cs {
		for _, dy := range []int{-1, 1} {
			p := Coord{X: c.X, Y: c.Y + dy, Z: c.Z}
			if i, ok := s.Index(p); ok || i != None || s.Occupied(p) {
				t.Fatalf("Index(%+v) = %d, %v for a cell off the X+Y+Z = 0 plane", p, i, ok)
			}
		}
	}
}

// RemapErr reports the first disagreement of ApplyRemap's translation
// with coordinate lookups: remap[i] must be ns.Index(s.Coord(i)), None when
// absent, and increasing on the surviving amoebots. The new → old
// translation derived from it must be s.Index(ns.Coord(j)) at every new
// index, None for an added cell, and the two must be inverse on the
// surviving amoebots; ns.Index must find every new cell at its index. It
// is exported for the external test package.
func RemapErr(s, ns *Structure, remap []int32) error {
	if len(remap) != s.N() {
		return fmt.Errorf("remap length %d for %d amoebots", len(remap), s.N())
	}
	oldOf := make([]int32, ns.N())
	for j := range oldOf {
		oldOf[j] = None
	}
	last := None
	for i, j := range remap {
		if want, _ := ns.Index(s.Coord(int32(i))); j != want {
			return fmt.Errorf("remap[%d] = %d, want %d", i, j, want)
		}
		if j == None {
			continue
		}
		if j <= last {
			return fmt.Errorf("remap[%d] = %d after %d: not increasing", i, j, last)
		}
		last, oldOf[j] = j, int32(i)
	}
	for j, i := range oldOf {
		if k, ok := ns.Index(ns.Coord(int32(j))); !ok || k != int32(j) {
			return fmt.Errorf("the new structure's Index(%v) = %d, %v, want %d", ns.Coord(int32(j)), k, ok, j)
		}
		if want, _ := s.Index(ns.Coord(int32(j))); i != want {
			return fmt.Errorf("new index %d comes from old index %d, want %d", j, i, want)
		}
		if i != None && remap[i] != int32(j) {
			return fmt.Errorf("remap[%d] = %d, not the inverse of new index %d", i, remap[i], j)
		}
	}
	return nil
}

// fuzzBase is the fixed structure FuzzApplyDelta mutates: a radius-3
// hexagon built inline (an internal test file cannot import the shapes
// package without a cycle).
func fuzzBase() *Structure {
	var cs []Coord
	origin := Coord{}
	for z := -3; z <= 3; z++ {
		for x := -6; x <= 6; x++ {
			if c := XZ(x, z); origin.Dist(c) <= 3 {
				cs = append(cs, c)
			}
		}
	}
	return MustStructure(cs)
}

// FuzzApplyDelta differentially tests Structure.Apply — segment-shifted
// adjacency rows plus incremental Euler/peeling validation — against a
// from-scratch rebuild: whenever Apply accepts a delta, the result must
// equal NewStructure of the mutated coordinate set (same fingerprint, same
// adjacency) and be valid, its row table must answer every cell of the
// padded bounding box (checkIndexOracle), and ApplyRemap's remap must
// agree with coordinate lookups (RemapErr); whenever Apply rejects a
// structurally well-formed delta, the rebuilt result must really be
// invalid.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 4, 0})                   // add one east cell
	f.Add([]byte{1, 0, 0})                   // remove the center
	f.Add([]byte{0, 4, 0, 1, 3, 0, 1, 0, 3}) // mixed
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzBase()
		var d Delta
		for i := 0; i+2 < len(data); i += 3 {
			c := XZ(int(int8(data[i+1]))%8, int(int8(data[i+2]))%8)
			if data[i]&1 == 0 {
				d.Add = append(d.Add, c)
			} else {
				d.Remove = append(d.Remove, c)
			}
		}
		ns, remap, err := s.ApplyRemap(d)
		if err != nil {
			if !wellFormed(s, d) {
				return // malformed deltas must be rejected; nothing to cross-check
			}
			// A well-formed delta may only be rejected for an invalid result.
			rebuilt, nerr := NewStructure(mutatedCoords(s, d))
			if nerr != nil {
				return // e.g. every amoebot removed
			}
			if rebuilt.Validate() == nil {
				t.Fatalf("Apply rejected %v but the rebuilt result is valid: %v", d, err)
			}
			return
		}
		if !wellFormed(s, d) {
			t.Fatalf("Apply accepted malformed delta %v", d)
		}
		if verr := ns.Validate(); verr != nil {
			t.Fatalf("Apply accepted %v but result invalid: %v", d, verr)
		}
		if d.IsEmpty() {
			if ns != s || remap != nil {
				t.Fatal("empty delta did not return the receiver with a nil remap")
			}
		} else if rerr := RemapErr(s, ns, remap); rerr != nil {
			t.Fatalf("ApplyRemap(%v): %v", d, rerr)
		}
		rebuilt := MustStructure(mutatedCoords(s, d))
		checkIndexOracle(t, ns, mutatedCoords(s, d))
		if ns.Fingerprint() != rebuilt.Fingerprint() {
			t.Fatalf("Apply result differs from rebuild for %v", d)
		}
		for i := int32(0); i < int32(ns.N()); i++ {
			for dir := Direction(0); dir < NumDirections; dir++ {
				if ns.Neighbor(i, dir) != rebuilt.Neighbor(i, dir) {
					t.Fatalf("segment-shifted adjacency of node %d dir %v diverged", i, dir)
				}
			}
		}
	})
}

// wellFormed reports whether the delta satisfies Apply's documented
// structural requirements against s (ignoring result validity).
func wellFormed(s *Structure, d Delta) bool {
	adds := make(map[Coord]bool, len(d.Add))
	for _, c := range d.Add {
		if !c.Valid() || s.Occupied(c) || adds[c] {
			return false
		}
		adds[c] = true
	}
	removes := make(map[Coord]bool, len(d.Remove))
	for _, c := range d.Remove {
		if !s.Occupied(c) || removes[c] || adds[c] {
			return false
		}
		removes[c] = true
	}
	return s.N()+len(adds)-len(removes) > 0
}

// mutatedCoords returns s's coordinates with the delta applied setwise.
func mutatedCoords(s *Structure, d Delta) []Coord {
	removes := make(map[Coord]bool, len(d.Remove))
	for _, c := range d.Remove {
		removes[c] = true
	}
	var cs []Coord
	for _, c := range s.Coords() {
		if !removes[c] {
			cs = append(cs, c)
		}
	}
	return append(cs, d.Add...)
}
