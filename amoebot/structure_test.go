package amoebot

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spforest/internal/par"
)

// lineCoords returns n nodes in a row.
func lineCoords(n int) []Coord {
	cs := make([]Coord, n)
	for i := range cs {
		cs[i] = XZ(i, 0)
	}
	return cs
}

// ringCoords returns the 6 neighbors of the origin (a hexagon with an
// empty center — the smallest structure with a hole).
func ringCoords() []Coord {
	var cs []Coord
	for d := Direction(0); d < NumDirections; d++ {
		cs = append(cs, Coord{}.Neighbor(d))
	}
	return cs
}

func TestNewStructureErrors(t *testing.T) {
	cases := []struct {
		name   string
		coords []Coord
	}{
		{"empty structure", nil},
		{"invalid coordinate", []Coord{{X: 1, Y: 1, Z: 1}}},
		{"duplicate coordinate", []Coord{XZ(0, 0), XZ(0, 0)}},
		// X = MaxInt64's east neighbor wraps to MinInt64: without the
		// bound the pair is "connected" at distance 1.
		{"wrapping pair", []Coord{XZ(math.MaxInt64, 0), XZ(math.MinInt64, 0)}},
		{"X past MaxCoord", []Coord{XZ(MaxCoord+1, 0)}},
		{"Z past -MaxCoord", []Coord{XZ(0, -MaxCoord-1)}},
	}
	for _, tc := range cases {
		if _, err := NewStructure(tc.coords); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The error names the first offending cell in canonical order.
	if _, err := ParseStructure([]byte("9223372036854775807 0\n-9223372036854775808 0\n")); err == nil ||
		!strings.Contains(err.Error(), "(-9223372036854775808,0)") {
		t.Errorf("ParseStructure of the wrapping pair: err = %v, want one naming (-9223372036854775808,0)", err)
	}
	// The bound itself is inclusive.
	if _, err := NewStructure([]Coord{XZ(MaxCoord, -MaxCoord), XZ(-MaxCoord, MaxCoord)}); err != nil {
		t.Errorf("cells on the bound rejected: %v", err)
	}
}

func TestStructureAdjacency(t *testing.T) {
	s := MustStructure(lineCoords(3))
	mid, _ := s.Index(XZ(1, 0))
	if got := s.Degree(mid); got != 2 {
		t.Errorf("middle degree = %d, want 2", got)
	}
	left, _ := s.Index(XZ(0, 0))
	if s.Neighbor(left, DirE) != mid {
		t.Error("east neighbor of left end is not middle")
	}
	if s.Neighbor(left, DirW) != None {
		t.Error("west neighbor of left end should be None")
	}
	if got := len(s.Neighbors(mid, nil)); got != 2 {
		t.Errorf("Neighbors(mid) = %d entries", got)
	}
}

func TestStructureIndexRoundTrip(t *testing.T) {
	gapped := []Coord{XZ(-4, 0), XZ(-1, 0), XZ(0, 0), XZ(3, 0), XZ(7, 0), XZ(2, 1), XZ(5, 1), XZ(0, 2)}
	farRows := []Coord{XZ(0, 0), XZ(1, 0), XZ(-5, 1<<39), XZ(9, 1<<39), XZ(3, -1<<39), XZ(4, -1<<39)}
	for _, cs := range [][]Coord{lineCoords(5), gapped, farRows, {XZ(MaxCoord, -MaxCoord)}} {
		s := MustStructure(cs)
		for i := int32(0); i < int32(s.N()); i++ {
			j, ok := s.Index(s.Coord(i))
			if !ok || j != i {
				t.Fatalf("index round trip failed for %d of %v", i, cs)
			}
		}
		for _, c := range cs {
			// Cells along the row hit exactly when occupied.
			for dx := -9; dx <= 9; dx++ {
				p := XZ(c.X+dx, c.Z)
				if _, ok := s.Index(p); ok != slices.Contains(cs, p) || s.Occupied(p) != ok {
					t.Fatalf("Index(%v) = %v in %v", p, ok, cs)
				}
			}
			// Far-off probes, whose offset from the row start wraps, and
			// off-plane probes miss.
			for _, p := range []Coord{XZ(math.MaxInt64, c.Z), XZ(math.MinInt64, c.Z), XZ(-math.MaxInt64, c.Z),
				XZ(c.X, math.MaxInt64), XZ(c.X, math.MinInt64), {X: c.X, Y: c.Y + 1, Z: c.Z}} {
				if _, ok := s.Index(p); ok || s.Occupied(p) {
					t.Fatalf("Index found %+v in %v", p, cs)
				}
			}
		}
	}
}

func TestConnectivity(t *testing.T) {
	if !MustStructure(lineCoords(4)).IsConnected() {
		t.Error("line not connected")
	}
	disc := MustStructure([]Coord{XZ(0, 0), XZ(5, 0)})
	if disc.IsConnected() {
		t.Error("disconnected structure reported connected")
	}
	if err := disc.Validate(); err == nil {
		t.Error("Validate accepted disconnected structure")
	}
}

func TestHolesRing(t *testing.T) {
	ring := MustStructure(ringCoords())
	if got := ring.Holes(); got != 1 {
		t.Errorf("hex ring Holes() = %d, want 1", got)
	}
	if ring.IsHoleFree() {
		t.Error("hex ring reported hole-free")
	}
	if err := ring.Validate(); err == nil {
		t.Error("Validate accepted structure with a hole")
	}
	full := MustStructure(append(ringCoords(), Coord{}))
	if !full.IsHoleFree() {
		t.Error("filled hexagon reported a hole")
	}
	if err := full.Validate(); err != nil {
		t.Errorf("Validate rejected filled hexagon: %v", err)
	}
}

func TestHolesTwoSeparate(t *testing.T) {
	// A 5x5 parallelogram with two removed interior cells far apart: 2 holes.
	var cs []Coord
	for z := 0; z < 5; z++ {
		for x := 0; x < 5; x++ {
			if (x == 1 && z == 2) || (x == 3 && z == 2) {
				continue
			}
			cs = append(cs, XZ(x, z))
		}
	}
	s := MustStructure(cs)
	if got := s.Holes(); got != 2 {
		t.Errorf("Holes() = %d, want 2", got)
	}
}

func TestHolesMatchFloodFillRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Random occupancy on a small box; any hole count must agree
		// between the Euler-characteristic counter and flood fill.
		var cs []Coord
		for z := 0; z < 6; z++ {
			for x := 0; x < 6; x++ {
				if rng.Intn(100) < 70 {
					cs = append(cs, XZ(x, z))
				}
			}
		}
		if len(cs) == 0 {
			continue
		}
		s := MustStructure(cs)
		euler, flood := s.Holes(), s.holesByFloodFill()
		if euler != flood {
			t.Fatalf("trial %d: Holes()=%d but flood fill says %d (coords %v)",
				trial, euler, flood, cs)
		}
	}
}

func TestBounds(t *testing.T) {
	s := MustStructure([]Coord{XZ(-2, 1), XZ(4, -3), XZ(0, 0)})
	minX, maxX, minZ, maxZ := s.Bounds()
	if minX != -2 || maxX != 4 || minZ != -3 || maxZ != 1 {
		t.Errorf("Bounds = %d %d %d %d", minX, maxX, minZ, maxZ)
	}
}

func TestCoordsCanonicalOrder(t *testing.T) {
	s := MustStructure([]Coord{XZ(1, 1), XZ(0, 0), XZ(1, 0)})
	cs := s.Coords()
	if cs[0] != XZ(0, 0) || cs[1] != XZ(1, 0) || cs[2] != XZ(1, 1) {
		t.Errorf("canonical order broken: %v", cs)
	}
	// Mutating the copy must not affect the structure.
	cs[0] = XZ(9, 9)
	if s.Coord(0) == XZ(9, 9) {
		t.Error("Coords returned internal slice")
	}
}

// TestValidateExecMatchesSerial: validation with the edge/triangle tally
// fanned out over several workers must return the same verdict — including
// the exact hole count in the error text — as the one-chunk tally, for
// valid, disconnected and holed structures. Fresh structures are built per
// worker count because the verdict is memoized.
func TestValidateExecMatchesSerial(t *testing.T) {
	ring := func() []Coord {
		var cs []Coord
		c := XZ(0, 0)
		for d := Direction(0); d < NumDirections; d++ {
			cs = append(cs, c.Neighbor(d))
		}
		return cs
	}
	cases := []struct {
		name   string
		coords []Coord
	}{
		{"valid-line", lineCoords(300)},
		{"single", []Coord{XZ(0, 0)}},
		{"disconnected", append(lineCoords(100), XZ(0, 5), XZ(1, 5))},
		{"one-hole-ring", ring()},
	}
	for _, c := range cases {
		serialErr := MustStructure(c.coords).Validate()
		for _, workers := range []int{2, 8} {
			ex := par.New(workers, nil)
			got := MustStructure(c.coords).ValidateExec(ex)
			switch {
			case (got == nil) != (serialErr == nil):
				t.Errorf("%s workers=%d: verdict %v, serial %v", c.name, workers, got, serialErr)
			case got != nil && got.Error() != serialErr.Error():
				t.Errorf("%s workers=%d: error %q, serial %q", c.name, workers, got, serialErr)
			}
		}
	}
}

// TestValidateExecLargeBlob runs the chunked edge/triangle tally above the
// parallel fan-out threshold on a structure known to be valid.
func TestValidateExecLargeBlob(t *testing.T) {
	// A dense parallelogram strip, guaranteed connected and hole-free.
	var cs []Coord
	for z := 0; z < 20; z++ {
		for x := 0; x < 200; x++ {
			cs = append(cs, XZ(x, z))
		}
	}
	if err := MustStructure(cs).ValidateExec(par.New(4, nil)); err != nil {
		t.Fatalf("parallel validation rejected a valid structure: %v", err)
	}
}

// BenchmarkValidateExec times one validation pass on the hexagons of radius
// 130 and 577 (n = 51,091 and 1,000,519) with GOMAXPROCS workers, so
// `go test -run NONE -bench ValidateExec -cpu 1,2 ./amoebot` compares one
// and two workers. Each iteration validates a fresh memo over the same
// adjacency.
func BenchmarkValidateExec(b *testing.B) {
	for _, r := range []int{130, 577} {
		b.Run(fmt.Sprintf("n=%d", 3*r*(r+1)+1), func(b *testing.B) {
			var cs []Coord
			for z := -r; z <= r; z++ {
				for x := max(-r, -r-z); x <= min(r, r-z); x++ {
					cs = append(cs, XZ(x, z))
				}
			}
			s := MustStructure(cs)
			ex := par.New(runtime.GOMAXPROCS(0), nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := &Structure{coords: s.coords, rowZ: s.rowZ, rowOff: s.rowOff, nbr: s.nbr}
				if err := fresh.ValidateExec(ex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
