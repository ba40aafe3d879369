package amoebot

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"spforest/internal/par"
)

// None marks the absence of a node index (no neighbor, no parent, ...).
const None int32 = -1

// Structure is a finite connected amoebot structure X ⊆ V∆: a set of
// occupied grid nodes with precomputed adjacency. Structures are immutable
// once built; algorithms operate on (sub-)Regions of a Structure.
type Structure struct {
	coords []Coord
	// The row table over the canonical order: row r holds the amoebots
	// with Z = rowZ[r] (ascending), at coords[rowOff[r]:rowOff[r+1]] in
	// ascending X. len(rowOff) = len(rowZ)+1.
	rowZ   []int
	rowOff []int32
	nbr    [][NumDirections]int32

	// Validity (with the component and hole counts it rests on) and the
	// fingerprint are derived from the immutable coordinate set, so both
	// are computed at most once. Apply primes validOnce on structures it
	// proved valid incrementally, skipping the O(n) pass.
	validOnce    sync.Once
	comps, holes int
	validErr     error
	fpOnce       sync.Once
	fp           string
}

// MaxCoord bounds the axial coordinates of a structure's cells: every
// amoebot has |X| ≤ MaxCoord and |Z| ≤ MaxCoord. With X+Y+Z = 0 the bound
// keeps every Y, neighbor and Dist sum far inside int, so grid arithmetic
// on a structure never wraps.
const MaxCoord = 1 << 40

// inRange reports whether c's X and Z lie within ±MaxCoord.
func (c Coord) inRange() bool {
	return c.X >= -MaxCoord && c.X <= MaxCoord && c.Z >= -MaxCoord && c.Z <= MaxCoord
}

// NewStructure builds a structure from the given coordinates. Duplicates and
// coordinates beyond MaxCoord are rejected. The structure is not required to
// be connected or hole-free; use Validate to check the paper's preconditions.
func NewStructure(coords []Coord) (*Structure, error) {
	if len(coords) == 0 {
		return nil, errors.New("amoebot: empty structure")
	}
	// Copy and canonicalize order (row-major: by Z then X) so structures
	// compare and render deterministically regardless of input order.
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	sort.Slice(cs, func(i, j int) bool { return lessCoord(cs[i], cs[j]) })
	for i, c := range cs {
		if !c.inRange() {
			return nil, fmt.Errorf("amoebot: coordinate %v out of range (|X| or |Z| above %d)", c, MaxCoord)
		}
		if !c.Valid() {
			return nil, fmt.Errorf("amoebot: invalid coordinate %v (X+Y+Z != 0)", c)
		}
		// Valid cells with equal X and Z are equal, and sort next to each other.
		if i > 0 && cs[i-1] == c {
			return nil, fmt.Errorf("amoebot: duplicate coordinate %v", c)
		}
	}
	s := &Structure{coords: cs, nbr: make([][NumDirections]int32, len(cs))}
	s.rowZ, s.rowOff = rowTable(cs)
	for i, c := range cs {
		for d := Direction(0); d < NumDirections; d++ {
			s.nbr[i][d], _ = s.Index(c.Neighbor(d))
		}
	}
	return s, nil
}

// rowTable returns the row table of coordinates in canonical order: the
// distinct Z values, ascending, and the offset at which each row starts,
// closed by len(cs). Each row's end is found by galloping from its start
// and then binary search, so a row of m amoebots costs O(log m) probes
// instead of m.
func rowTable(cs []Coord) (rowZ []int, rowOff []int32) {
	for lo := 0; lo < len(cs); {
		z := cs[lo].Z
		rowZ, rowOff = append(rowZ, z), append(rowOff, int32(lo))
		// The row holds cs[lo+step/2] and ends at most at lo+step.
		step := 1
		for lo+step < len(cs) && cs[lo+step].Z == z {
			step *= 2
		}
		in, hi := lo+step/2+1, min(lo+step, len(cs))
		lo = in + sort.Search(hi-in, func(k int) bool { return cs[in+k].Z != z })
	}
	return rowZ, append(rowOff, int32(len(cs)))
}

// MustStructure is NewStructure that panics on error; for tests and examples.
func MustStructure(coords []Coord) *Structure {
	s, err := NewStructure(coords)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of amoebots.
func (s *Structure) N() int { return len(s.coords) }

// Coord returns the coordinate of node i.
func (s *Structure) Coord(i int32) Coord { return s.coords[i] }

// Coords returns a copy of all coordinates in canonical (row-major) order.
func (s *Structure) Coords() []Coord {
	out := make([]Coord, len(s.coords))
	copy(out, s.coords)
	return out
}

// Index returns the node index of coordinate c, or (None, false) if c is
// unoccupied. It binary-searches the row table for c.Z; within the row, a
// gap-free run holds c.X at its offset from the row's first X, and a row
// with gaps is binary-searched. Only a stored coordinate equal to c in all
// three components answers, so an invalid c (X+Y+Z ≠ 0) always misses.
func (s *Structure) Index(c Coord) (int32, bool) {
	r, ok := slices.BinarySearch(s.rowZ, c.Z)
	if !ok {
		return None, false
	}
	lo := s.rowOff[r]
	row := s.coords[lo:s.rowOff[r+1]]
	// The offset may wrap for far-off probes; the slot check catches that.
	k := c.X - row[0].X
	if k < 0 || k >= len(row) || row[k].X != c.X {
		k, _ = slices.BinarySearchFunc(row, c.X, func(e Coord, x int) int { return cmp.Compare(e.X, x) })
		if k == len(row) {
			return None, false
		}
	}
	if row[k] != c {
		return None, false
	}
	return lo + int32(k), true
}

// Occupied reports whether coordinate c is part of the structure.
func (s *Structure) Occupied(c Coord) bool { _, ok := s.Index(c); return ok }

// Neighbor returns the index of node i's neighbor in direction d, or None.
func (s *Structure) Neighbor(i int32, d Direction) int32 { return s.nbr[i][d] }

// Degree returns the number of occupied neighbors of node i.
func (s *Structure) Degree(i int32) int {
	deg := 0
	for d := Direction(0); d < NumDirections; d++ {
		if s.nbr[i][d] != None {
			deg++
		}
	}
	return deg
}

// Neighbors appends the occupied neighbors of i to buf (counterclockwise
// from east) and returns the extended slice.
func (s *Structure) Neighbors(i int32, buf []int32) []int32 {
	for d := Direction(0); d < NumDirections; d++ {
		if j := s.nbr[i][d]; j != None {
			buf = append(buf, j)
		}
	}
	return buf
}

// IsConnected reports whether the induced graph G_X is connected. It reads
// the component count of the memoized validation pass.
func (s *Structure) IsConnected() bool {
	s.Validate()
	return s.comps == 1
}

func (s *Structure) componentCount() int {
	seen := make([]bool, s.N())
	comps := 0
	stack := make([]int32, 0, s.N())
	for start := int32(0); start < int32(s.N()); start++ {
		if seen[start] {
			continue
		}
		comps++
		seen[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for d := Direction(0); d < NumDirections; d++ {
				if v := s.nbr[u][d]; v != None && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return comps
}

// Holes returns the number of holes of the structure: bounded connected
// components of the complement graph G_{V∆\X}. It is computed from the Euler
// characteristic of the induced simplicial complex (nodes, induced edges,
// filled unit triangles): for a structure with c connected components,
// holes = c − (V − E + T). This is O(n) regardless of the bounding box,
// and it is the count of the memoized validation pass.
func (s *Structure) Holes() int {
	s.Validate()
	return s.holes
}

// IsHoleFree reports whether the structure has no holes, i.e. the complement
// G_{V∆\X} is connected. The paper's algorithms require hole-free structures.
func (s *Structure) IsHoleFree() bool { return s.Holes() == 0 }

// Validate checks the preconditions of the paper's algorithms: the structure
// must be connected and hole-free. The verdict is memoized — structures are
// immutable — so repeated validation (one engine per query stream, pooled
// engines, delta chains) pays the O(n) pass at most once per structure.
func (s *Structure) Validate() error {
	return s.ValidateExec(nil)
}

// ValidateExec is Validate with the edge/triangle tally of the hole count
// fanned out over the exec (nil tallies serially). The verdict, including
// the hole count in the error message, is identical at every worker count,
// and the memo still guarantees at most one pass per structure.
func (s *Structure) ValidateExec(ex *par.Exec) error {
	s.validOnce.Do(func() { s.validateExec(ex) })
	return s.validErr
}

// validateExec counts the components with one depth-first search and the
// holes from the Euler characteristic, and derives the verdict from both.
func (s *Structure) validateExec(ex *par.Exec) {
	s.comps = s.componentCount()
	e, t := s.edgeAndTriangleCountExec(ex)
	s.holes = s.comps - (s.N() - e + t)
	switch {
	case s.comps != 1:
		s.validErr = errors.New("amoebot: structure is not connected")
	case s.holes != 0:
		s.validErr = fmt.Errorf("amoebot: structure has %d hole(s)", s.holes)
	}
}

// edgeAndTriangleCountExec returns the number of induced edges and the
// number of filled unit triangles (three mutually adjacent occupied nodes)
// as a chunk-parallel reduction; a nil exec runs it as one serial chunk.
// Per-node tallies are independent and the sums fold in index order.
func (s *Structure) edgeAndTriangleCountExec(ex *par.Exec) (edges, triangles int) {
	type tally struct{ deg2, corners int }
	sums := par.Reduce(ex, len(s.nbr),
		func(lo, hi int) tally {
			var t tally
			for i := lo; i < hi; i++ {
				for d := Direction(0); d < NumDirections; d++ {
					if s.nbr[i][d] == None {
						continue
					}
					t.deg2++
					// A unit triangle corner at i between directions d and
					// d+1: the neighbors in two consecutive directions are
					// always mutually adjacent on the grid, so the triangle
					// is filled iff both are occupied. Every triangle has
					// exactly 3 corners.
					if s.nbr[i][d.CCW()] != None {
						t.corners++
					}
				}
			}
			return t
		},
		func(a, b tally) tally { return tally{a.deg2 + b.deg2, a.corners + b.corners} })
	return sums.deg2 / 2, sums.corners / 3
}

// markValid primes the validity memo of a structure that was proven
// connected and hole-free by incremental means (see Apply).
func (s *Structure) markValid() {
	s.validOnce.Do(func() { s.comps = 1 })
}

// Bounds returns the inclusive axial bounding box of the structure in
// (X, Z) coordinates.
func (s *Structure) Bounds() (minX, maxX, minZ, maxZ int) {
	minX, maxX = s.coords[0].X, s.coords[0].X
	minZ, maxZ = s.coords[0].Z, s.coords[0].Z
	for _, c := range s.coords {
		if c.X < minX {
			minX = c.X
		}
		if c.X > maxX {
			maxX = c.X
		}
		if c.Z < minZ {
			minZ = c.Z
		}
		if c.Z > maxZ {
			maxZ = c.Z
		}
	}
	return minX, maxX, minZ, maxZ
}

// holesByFloodFill is the brute-force hole count used to cross-check Holes
// in tests: flood-fill the complement inside the padded bounding box from
// the outer ring; every unreached complement cell belongs to a hole
// component. Exponentially sized boxes make this unsuitable outside tests.
func (s *Structure) holesByFloodFill() int {
	minX, maxX, minZ, maxZ := s.Bounds()
	minX, maxX, minZ, maxZ = minX-1, maxX+1, minZ-1, maxZ+1
	w, h := maxX-minX+1, maxZ-minZ+1
	idx := func(x, z int) int { return (z-minZ)*w + (x - minX) }
	visited := make([]bool, w*h)
	inBox := func(c Coord) bool {
		return c.X >= minX && c.X <= maxX && c.Z >= minZ && c.Z <= maxZ
	}
	var stack []Coord
	push := func(c Coord) {
		if !inBox(c) || visited[idx(c.X, c.Z)] || s.Occupied(c) {
			return
		}
		visited[idx(c.X, c.Z)] = true
		stack = append(stack, c)
	}
	push(XZ(minX, minZ))
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for d := Direction(0); d < NumDirections; d++ {
			push(c.Neighbor(d))
		}
	}
	holes := 0
	hstack := make([]Coord, 0)
	for z := minZ; z <= maxZ; z++ {
		for x := minX; x <= maxX; x++ {
			c := XZ(x, z)
			if visited[idx(x, z)] || s.Occupied(c) {
				continue
			}
			holes++
			visited[idx(x, z)] = true
			hstack = append(hstack[:0], c)
			for len(hstack) > 0 {
				u := hstack[len(hstack)-1]
				hstack = hstack[:len(hstack)-1]
				for d := Direction(0); d < NumDirections; d++ {
					v := u.Neighbor(d)
					if inBox(v) && !visited[idx(v.X, v.Z)] && !s.Occupied(v) {
						visited[idx(v.X, v.Z)] = true
						hstack = append(hstack, v)
					}
				}
			}
		}
	}
	return holes
}
