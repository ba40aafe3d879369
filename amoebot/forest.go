package amoebot

import (
	"fmt"
	"slices"

	"spforest/internal/dense"
)

// Forest is the output representation of the shortest-path-forest problem
// (paper §1.3): every amoebot that belongs to some tree either is a root
// (a source) or knows its parent. Amoebots outside every tree are not
// members.
//
// The zero value is unusable; construct with NewForest.
type Forest struct {
	s *Structure
	// cell encodes membership and parent in one column: 0 = not a member,
	// 1 = root, p+2 = member with parent p. A fresh forest is therefore a
	// single zeroed allocation and a clone a single copy.
	cell []int32
}

// The cell encoding: a member with parent p stores p + cellParent.
const (
	cellNone   int32 = 0
	cellRoot   int32 = 1
	cellParent int32 = 2
)

// NewForest returns an empty forest over s (no members).
func NewForest(s *Structure) *Forest {
	return &Forest{s: s, cell: make([]int32, s.N())}
}

// scratchCells recycles the columns of scratch forests.
var scratchCells = dense.NewColumns(cellNone)

// NewScratchForest returns an empty forest over s on a recycled column,
// at no pass over s, for a forest that lives until ReleaseScratch, which
// must be handed every node set on it.
func NewScratchForest(s *Structure) *Forest {
	return &Forest{s: s, cell: scratchCells.Take(s.N())}
}

// ReleaseScratch hands the column of a forest from NewScratchForest back
// and leaves f unusable. Only the touched entries are cleared, so touched
// must hold every node set since NewScratchForest (say, its region).
func (f *Forest) ReleaseScratch(touched []int32) {
	scratchCells.Put(f.cell, touched)
	f.cell = nil
}

func init() {
	// SetParent(i, None) must encode a root; keep the constant in sync with
	// the cell encoding.
	if None+cellParent != cellRoot {
		panic("amoebot: None must be -1")
	}
}

// Structure returns the structure the forest lives on.
func (f *Forest) Structure() *Structure { return f.s }

// SetRoot makes node i a member with no parent.
func (f *Forest) SetRoot(i int32) { f.cell[i] = cellRoot }

// SetParent makes node i a member with parent p (which must be adjacent
// to i in the structure; this is checked by Check, not here). A parent of
// None makes i a root.
func (f *Forest) SetParent(i, p int32) { f.cell[i] = p + cellParent }

// Remove drops node i from the forest.
func (f *Forest) Remove(i int32) { f.cell[i] = cellNone }

// Member reports whether node i belongs to some tree.
func (f *Forest) Member(i int32) bool { return f.cell[i] != cellNone }

// Parent returns the parent of node i, or None for roots and non-members.
func (f *Forest) Parent(i int32) int32 {
	if c := f.cell[i]; c >= cellParent {
		return c - cellParent
	}
	return None
}

// Roots returns the member nodes without parents, ascending.
func (f *Forest) Roots() []int32 {
	var roots []int32
	for i, c := range f.cell {
		if c == cellRoot {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// Members returns all member nodes, ascending. It scans the whole
// structure.
func (f *Forest) Members() []int32 {
	var m []int32
	for i, c := range f.cell {
		if c != cellNone {
			m = append(m, int32(i))
		}
	}
	return m
}

// Size returns the number of member nodes. It scans the whole structure.
func (f *Forest) Size() int {
	n := 0
	for _, c := range f.cell {
		if c != cellNone {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the forest.
func (f *Forest) Clone() *Forest {
	return &Forest{s: f.s, cell: slices.Clone(f.cell)}
}

// RootOf follows parent pointers from i to its tree root. It returns None
// if i is not a member or if a cycle or non-member parent is encountered.
func (f *Forest) RootOf(i int32) int32 {
	if f.cell[i] == cellNone {
		return None
	}
	steps := 0
	for f.cell[i] >= cellParent {
		i = f.cell[i] - cellParent
		steps++
		if f.cell[i] == cellNone || steps > f.s.N() {
			return None
		}
	}
	return i
}

// Depth returns the number of parent hops from i to its root, or -1 if
// RootOf would fail.
func (f *Forest) Depth(i int32) int {
	if f.cell[i] == cellNone {
		return -1
	}
	d := 0
	for f.cell[i] >= cellParent {
		i = f.cell[i] - cellParent
		d++
		if f.cell[i] == cellNone || d > f.s.N() {
			return -1
		}
	}
	return d
}

// Children returns, for every node, its member children, as a slice indexed
// by node.
func (f *Forest) Children() [][]int32 {
	ch := make([][]int32, f.s.N())
	for i, c := range f.cell {
		if c >= cellParent {
			ch[c-cellParent] = append(ch[c-cellParent], int32(i))
		}
	}
	return ch
}

// Check verifies structural sanity: every member's parent chain reaches a
// root through adjacent member nodes, with no cycles. It does not check
// shortest-path properties; see the verify package for the full
// five-property SPF check. Membership and parent share one cell, so a
// non-member never carries a parent and has no case of its own to reject.
func (f *Forest) Check() error {
	state := make([]int8, f.s.N()) // 0 unvisited, 1 in progress, 2 ok
	var walk func(i int32) error
	walk = func(i int32) error {
		switch state[i] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("amoebot: forest has a cycle through node %d", i)
		}
		state[i] = 1
		if p := f.Parent(i); p != None {
			if !f.Member(p) {
				return fmt.Errorf("amoebot: node %d has non-member parent %d", i, p)
			}
			if _, ok := DirectionBetween(f.s.Coord(i), f.s.Coord(p)); !ok {
				return fmt.Errorf("amoebot: node %d and parent %d are not adjacent", i, p)
			}
			if err := walk(p); err != nil {
				return err
			}
		}
		state[i] = 2
		return nil
	}
	for i := int32(0); i < int32(f.s.N()); i++ {
		if !f.Member(i) {
			continue
		}
		if err := walk(i); err != nil {
			return err
		}
	}
	return nil
}
