package amoebot

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Delta describes a mutation of a structure: a set of coordinates to add
// and a set of coordinates to remove. Deltas are the unit of change of
// dynamic programmable matter — amoebots joining, leaving or relocating
// during shape reconfiguration — and are applied with Structure.Apply.
type Delta struct {
	// Add lists unoccupied coordinates to occupy.
	Add []Coord
	// Remove lists occupied coordinates to vacate.
	Remove []Coord
}

// IsEmpty reports whether the delta changes nothing.
func (d Delta) IsEmpty() bool { return len(d.Add) == 0 && len(d.Remove) == 0 }

// Size returns the number of coordinates the delta touches.
func (d Delta) Size() int { return len(d.Add) + len(d.Remove) }

// Move returns the delta that relocates one amoebot.
func Move(from, to Coord) Delta {
	return Delta{Add: []Coord{to}, Remove: []Coord{from}}
}

func (d Delta) String() string {
	return fmt.Sprintf("Delta(+%d -%d)", len(d.Add), len(d.Remove))
}

// Footprint is the locality of a delta: the coordinates whose occupancy
// or 6-neighborhood occupancy the delta changes. Every per-structure
// decomposition (portal runs, implicit-tree edges, view trees) is a local
// function of a cell's neighborhood, so anything outside the footprint is
// untouched by the mutation — the rule the delta-aware preprocessing
// repair of engine.Apply relies on to avoid rescanning the structure.
type Footprint struct {
	// Coords lists, in canonical structure order and without duplicates,
	// the delta's own cells plus every neighbor of a delta cell. A cell in
	// Coords may be occupied before, after, both or neither; cells outside
	// Coords keep both their occupancy and their entire neighborhood.
	Coords []Coord
}

// Size returns the number of footprint coordinates.
func (f Footprint) Size() int { return len(f.Coords) }

// Footprint computes the delta's footprint from the delta alone — O(|d|)
// coordinate arithmetic, no structure scan. It is exactly the locality the
// incremental validation of Structure.Apply walks (the delta cells and
// their neighborhoods), packaged for the layers above: a decomposition
// entry whose cell is outside the footprint is bitwise unchanged by the
// mutation (modulo index remapping). All three portal axes are incident to
// every non-empty delta — a cell belongs to one run per axis — so the
// footprint carries no per-axis split; per-axis damage is judged by the
// portal layer against its own runs.
func (d Delta) Footprint() Footprint {
	if d.IsEmpty() {
		return Footprint{}
	}
	seen := make(map[Coord]bool, 7*d.Size())
	coords := make([]Coord, 0, 7*d.Size())
	add := func(c Coord) {
		if !seen[c] {
			seen[c] = true
			coords = append(coords, c)
		}
	}
	for _, cs := range [2][]Coord{d.Add, d.Remove} {
		for _, c := range cs {
			add(c)
			for dir := Direction(0); dir < NumDirections; dir++ {
				add(c.Neighbor(dir))
			}
		}
	}
	sort.Slice(coords, func(i, j int) bool { return lessCoord(coords[i], coords[j]) })
	return Footprint{Coords: coords}
}

// NeighborArcs counts, for coordinate c under the given occupancy, the
// occupied neighbors of c (deg) and the number of maximal runs they form in
// the cyclic order of the six directions (arcs). The occupancy of c itself
// is irrelevant.
//
// The pair decides local mutability on connected hole-free structures: a
// cell with 1 ≤ deg ≤ 5 occupied neighbors forming a single arc can be
// removed (if occupied) or added (if empty) without breaking connectivity
// or creating a hole — see Structure.Apply.
func NeighborArcs(occ func(Coord) bool, c Coord) (deg, arcs int) {
	prev := occ(c.Neighbor(NumDirections - 1))
	for d := Direction(0); d < NumDirections; d++ {
		cur := occ(c.Neighbor(d))
		if cur {
			deg++
			if !prev {
				arcs++
			}
		}
		prev = cur
	}
	return deg, arcs
}

// Apply builds the structure obtained by removing d.Remove and adding
// d.Add, leaving the receiver untouched. In canonical order every amoebot
// between two consecutive delta positions moves by the same amount, so the
// new structure is built in one pass over those index segments: each
// segment's coordinates are copied, its adjacency rows are the old rows
// shifted by that amount, and only the rows around added cells are probed
// with Index (see applySegments).
//
// Apply requires the result to satisfy the paper's preconditions
// (connected and hole-free) and returns an error otherwise. When the base
// structure is itself valid, the check is incremental: the Euler
// characteristic is updated from the edges and triangles incident to the
// delta (O(|d|)), and connectivity is established by peeling the delta one
// cell at a time with an O(1) local rule — a cell whose occupied neighbors
// form a single cyclic arc of length 1–5 can be added or removed while
// preserving validity. Only when no peeling order exists does Apply fall
// back to one full connectivity pass. The verdict agrees exactly with
// Validate on the result (differentially tested).
//
// An empty delta returns the receiver. Malformed deltas — duplicate
// coordinates, adding an occupied, invalid or out-of-range (beyond
// MaxCoord) cell or removing an unoccupied one, a coordinate both added
// and removed, removing every amoebot — are rejected before any structure
// is built.
func (s *Structure) Apply(d Delta) (*Structure, error) {
	ns, _, err := s.ApplyRemap(d)
	return ns, err
}

// ApplyRemap is Apply that also hands over the index translation the
// segment pass builds: remap maps each old index to its new index (None
// for a removed cell). Between delta positions it is the identity plus a
// constant, so it is increasing on the surviving amoebots. It is nil for
// an empty delta, which returns the receiver.
func (s *Structure) ApplyRemap(d Delta) (ns *Structure, remap []int32, err error) {
	if d.IsEmpty() {
		return s, nil, nil
	}
	addSet, removeSet, err := s.checkDelta(d)
	if err != nil {
		return nil, nil, err
	}
	ns, remap = s.applySegments(d)
	if err := s.checkResult(ns, addSet, removeSet); err != nil {
		return nil, nil, err
	}
	return ns, remap, nil
}

// checkDelta rejects a malformed delta and returns its add and remove
// sets.
func (s *Structure) checkDelta(d Delta) (addSet, removeSet map[Coord]bool, err error) {
	removeSet = make(map[Coord]bool, len(d.Remove))
	for _, c := range d.Remove {
		if !s.Occupied(c) {
			return nil, nil, fmt.Errorf("amoebot: delta removes unoccupied %v", c)
		}
		if removeSet[c] {
			return nil, nil, fmt.Errorf("amoebot: delta removes %v twice", c)
		}
		removeSet[c] = true
	}
	addSet = make(map[Coord]bool, len(d.Add))
	for _, c := range d.Add {
		if !c.inRange() {
			return nil, nil, fmt.Errorf("amoebot: delta adds out-of-range coordinate %v (|X| or |Z| above %d)", c, MaxCoord)
		}
		if !c.Valid() {
			return nil, nil, fmt.Errorf("amoebot: delta adds invalid coordinate %v (X+Y+Z != 0)", c)
		}
		if s.Occupied(c) {
			return nil, nil, fmt.Errorf("amoebot: delta adds occupied %v", c)
		}
		if removeSet[c] {
			return nil, nil, fmt.Errorf("amoebot: delta both adds and removes %v", c)
		}
		if addSet[c] {
			return nil, nil, fmt.Errorf("amoebot: delta adds %v twice", c)
		}
		addSet[c] = true
	}
	if s.N()+len(d.Add)-len(d.Remove) == 0 {
		return nil, nil, errors.New("amoebot: delta removes every amoebot")
	}
	return addSet, removeSet, nil
}

// checkResult decides whether the mutated structure ns is connected and
// hole-free: incrementally when the base is valid, by a full pass
// otherwise.
func (s *Structure) checkResult(ns *Structure, addSet, removeSet map[Coord]bool) error {
	if s.Validate() != nil {
		if err := ns.Validate(); err != nil {
			return fmt.Errorf("amoebot: delta result invalid: %w", err)
		}
		return nil
	}
	if !s.eulerAfter(addSet, removeSet, ns) {
		// χ ≠ 1 rules validity out without touching the n untouched
		// amoebots; the full pass only runs to name the failure.
		return fmt.Errorf("amoebot: delta result invalid: %w", ns.Validate())
	}
	// χ = 1 leaves connectivity: c − holes = 1, so connected ⇒ hole-free.
	if s.peelDelta(addSet, removeSet) || ns.componentCount() == 1 {
		ns.markValid()
		return nil
	}
	return fmt.Errorf("amoebot: delta result invalid: %w", ns.Validate())
}

// segment is a run [lo, hi) of old indices between two delta positions;
// each of its amoebots moves to its old index plus shift.
type segment struct{ lo, hi, shift int32 }

// applySegments builds the mutated structure of a well-formed delta and
// the old → new remap. The removed cells and the insertion points of the
// added cells cut the old index range into segments. Each segment's
// coordinates are copied and its remap entries filled with one shift, and
// the row table is read off the new coordinates. A surviving amoebot's
// adjacency row is its old row with every neighbor translated: plus the
// shift inside the segment, through remap outside it, None kept. A
// removed neighbor cuts the segments, so remap already holds None for it;
// only an added cell is a neighbor the old rows lack, so the rows of the
// added cells are probed with Index and each occupied neighbor gets the
// edge back.
func (s *Structure) applySegments(d Delta) (*Structure, []int32) {
	adds := slices.Clone(d.Add)
	sort.Slice(adds, func(i, j int) bool { return lessCoord(adds[i], adds[j]) })
	// at holds each added cell's insertion point among the old indices
	// until the pass places it, then its new index.
	at := make([]int32, len(adds))
	for k, c := range adds {
		at[k] = s.rank(c)
	}
	rems := make([]int32, len(d.Remove))
	for k, c := range d.Remove {
		rems[k], _ = s.Index(c)
	}
	slices.Sort(rems)

	n := int32(s.N())
	n2 := n + int32(len(adds)) - int32(len(rems))
	ns := &Structure{coords: make([]Coord, n2), nbr: make([][NumDirections]int32, n2)}
	remap := make([]int32, n)
	segs := make([]segment, 0, len(adds)+len(rems)+1)
	var i, j int32 // the next old and new index
	ai, ri := 0, 0
	for i < n || ai < len(adds) {
		next := n
		if ai < len(adds) {
			next = at[ai]
		}
		if ri < len(rems) {
			next = min(next, rems[ri])
		}
		if i < next {
			shift := j - i
			copy(ns.coords[j:], s.coords[i:next])
			for k := i; k < next; k++ {
				remap[k] = k + shift
			}
			segs = append(segs, segment{i, next, shift})
			j += next - i
			i = next
		}
		// An added cell goes before the old cell at its insertion point.
		if ai < len(adds) && at[ai] == i {
			ns.coords[j], at[ai] = adds[ai], j
			j++
			ai++
		} else if ri < len(rems) && rems[ri] == i {
			remap[i] = None
			i++
			ri++
		}
	}
	ns.rowZ, ns.rowOff = rowTable(ns.coords)

	for _, sg := range segs {
		span := uint32(sg.hi - sg.lo)
		for i := sg.lo; i < sg.hi; i++ {
			old, out := &s.nbr[i], &ns.nbr[i+sg.shift]
			for dir, v := range old {
				switch {
				case uint32(v-sg.lo) < span:
					out[dir] = v + sg.shift
				case v == None:
					out[dir] = None
				default:
					out[dir] = remap[v]
				}
			}
		}
	}
	for k, c := range adds {
		a := at[k]
		for dir := Direction(0); dir < NumDirections; dir++ {
			u, ok := ns.Index(c.Neighbor(dir))
			ns.nbr[a][dir] = u
			if ok {
				ns.nbr[u][dir.Opposite()] = a
			}
		}
	}
	return ns, remap
}

// rank returns the number of amoebots before c in canonical order, the
// old index an unoccupied c is inserted at.
func (s *Structure) rank(c Coord) int32 {
	r, ok := slices.BinarySearch(s.rowZ, c.Z)
	lo := s.rowOff[r]
	if !ok {
		return lo
	}
	row := s.coords[lo:s.rowOff[r+1]]
	k, _ := slices.BinarySearchFunc(row, c.X, func(e Coord, x int) int { return cmp.Compare(e.X, x) })
	return lo + int32(k)
}

// eulerAfter reports whether the mutated structure has Euler characteristic
// V − E + T = 1 (the value of every connected hole-free structure),
// computed from the base's χ = 1 and only the edges and triangles incident
// to the delta.
func (s *Structure) eulerAfter(addSet, removeSet map[Coord]bool, ns *Structure) bool {
	dV := len(addSet) - len(removeSet)

	// Edges and triangles of the new structure incident to added cells.
	dE, dT := 0, 0
	for c := range addSet {
		for dir := Direction(0); dir < NumDirections; dir++ {
			n := c.Neighbor(dir)
			if !ns.Occupied(n) {
				continue
			}
			// Count each added–added edge once, at its lesser endpoint.
			if !addSet[n] || lessCoord(c, n) {
				dE++
			}
			// The unit triangle (c, n, c.Neighbor(dir.CCW())): count it at
			// its added corner of least coordinate.
			t := c.Neighbor(dir.CCW())
			if ns.Occupied(t) && leastAddedCorner(addSet, c, n, t) {
				dT++
			}
		}
	}
	// Edges and triangles of the old structure incident to removed cells.
	for c := range removeSet {
		for dir := Direction(0); dir < NumDirections; dir++ {
			n := c.Neighbor(dir)
			if !s.Occupied(n) {
				continue
			}
			if !removeSet[n] || lessCoord(c, n) {
				dE--
			}
			t := c.Neighbor(dir.CCW())
			if s.Occupied(t) && leastAddedCorner(removeSet, c, n, t) {
				dT--
			}
		}
	}
	return 1+dV-dE+dT == 1
}

// leastAddedCorner reports whether c is the in-set corner of least
// coordinate among the triangle corners (c, n, t), so each changed triangle
// is counted exactly once.
func leastAddedCorner(set map[Coord]bool, c, n, t Coord) bool {
	if set[n] && lessCoord(n, c) {
		return false
	}
	if set[t] && lessCoord(t, c) {
		return false
	}
	return true
}

// lessCoord is the canonical row-major order of Structure.coords (it must
// match the sort in NewStructure).
func lessCoord(a, b Coord) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	return a.X < b.X
}

// peelDelta tries to order the delta cells so that every single-cell step
// preserves validity: on a connected hole-free structure, removing or
// adding a cell whose occupied neighbors form one cyclic arc of length 1–5
// keeps the structure connected and hole-free (the arc keeps the former
// neighbors mutually reachable, and the Euler characteristic — which the
// step changes by deg − triangles ± 1 = 0 for a single arc — keeps it
// hole-free). It returns true when every delta cell was applied this way,
// proving the final structure valid in O(|delta|²) neighbor probes; false
// means the local rules could not decide and the caller must check
// connectivity directly.
func (s *Structure) peelDelta(addSet, removeSet map[Coord]bool) bool {
	applied := make(map[Coord]bool, len(addSet)+len(removeSet))
	occ := func(c Coord) bool {
		if applied[c] {
			return addSet[c] // applied add: on; applied remove: off
		}
		return s.Occupied(c)
	}
	pending := make([]Coord, 0, len(addSet)+len(removeSet))
	for c := range removeSet {
		pending = append(pending, c)
	}
	for c := range addSet {
		pending = append(pending, c)
	}
	cur := s.N()
	for len(pending) > 0 {
		progress := false
		next := pending[:0]
		for _, c := range pending {
			deg, arcs := NeighborArcs(occ, c)
			ok := deg >= 1 && deg <= 5 && arcs == 1
			if removeSet[c] {
				ok = ok && cur > 1
			}
			if !ok {
				next = append(next, c)
				continue
			}
			applied[c] = true
			if removeSet[c] {
				cur--
			} else {
				cur++
			}
			progress = true
		}
		pending = next
		if !progress {
			return false
		}
	}
	return true
}
