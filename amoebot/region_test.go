package amoebot

import "testing"

func grid5x5() *Structure {
	var cs []Coord
	for z := 0; z < 5; z++ {
		for x := 0; x < 5; x++ {
			cs = append(cs, XZ(x, z))
		}
	}
	return MustStructure(cs)
}

func TestWholeRegion(t *testing.T) {
	s := grid5x5()
	r := WholeRegion(s)
	if r.Len() != s.N() {
		t.Fatalf("WholeRegion has %d nodes, want %d", r.Len(), s.N())
	}
	for i := int32(0); i < int32(s.N()); i++ {
		if !r.Contains(i) {
			t.Fatalf("WholeRegion missing node %d", i)
		}
	}
	if !r.IsConnected() {
		t.Error("whole 5x5 region not connected")
	}
}

// TestWholeRegionFrom checks that a whole region shares its identity node
// list only with a structure of the same size, and that every result is
// the whole region.
func TestWholeRegionFrom(t *testing.T) {
	s := grid5x5()
	r := WholeRegion(s)
	apply := func(d Delta) *Structure {
		ns, err := s.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	moved := apply(Delta{Add: []Coord{XZ(5, 0)}, Remove: []Coord{XZ(4, 4)}})
	grown := apply(Delta{Add: []Coord{XZ(5, 0)}})
	shrunk := apply(Delta{Remove: []Coord{XZ(4, 4)}})
	for _, tc := range []struct {
		name  string
		s     *Structure
		share bool
	}{{"moved", moved, true}, {"grown", grown, false}, {"shrunk", shrunk, false}} {
		w := WholeRegionFrom(tc.s, r)
		if w.Structure() != tc.s || w.Len() != tc.s.N() {
			t.Fatalf("%s: region of %d nodes, want the %d of its structure", tc.name, w.Len(), tc.s.N())
		}
		for k, u := range w.Nodes() {
			if u != int32(k) || !w.Contains(u) {
				t.Fatalf("%s: node %d is %d", tc.name, k, u)
			}
		}
		if shared := &w.Nodes()[0] == &r.Nodes()[0]; shared != tc.share {
			t.Errorf("%s: shares the node list: %v, want %v", tc.name, shared, tc.share)
		}
	}
}

func TestRegionNeighborRestriction(t *testing.T) {
	s := grid5x5()
	a, _ := s.Index(XZ(0, 0))
	b, _ := s.Index(XZ(1, 0))
	r := NewRegion(s, []int32{a})
	if r.Neighbor(a, DirE) != None {
		t.Error("region neighbor leaked outside the region")
	}
	r2 := NewRegion(s, []int32{a, b})
	if r2.Neighbor(a, DirE) != b {
		t.Error("region neighbor within region not found")
	}
	if r2.Degree(a) != 1 {
		t.Errorf("degree in region = %d, want 1", r2.Degree(a))
	}
}

func TestRegionComponents(t *testing.T) {
	s := grid5x5()
	a, _ := s.Index(XZ(0, 0))
	b, _ := s.Index(XZ(4, 4))
	c, _ := s.Index(XZ(3, 4))
	r := NewRegion(s, []int32{a, b, c})
	comps := r.Components()
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Len() != 1 || comps[1].Len() != 2 {
		t.Errorf("component sizes %d, %d", comps[0].Len(), comps[1].Len())
	}
	if r.IsConnected() {
		t.Error("split region reported connected")
	}
}

func TestRegionUnionIntersects(t *testing.T) {
	s := grid5x5()
	a, _ := s.Index(XZ(0, 0))
	b, _ := s.Index(XZ(1, 0))
	c, _ := s.Index(XZ(2, 0))
	r1 := NewRegion(s, []int32{a, b})
	r2 := NewRegion(s, []int32{b, c})
	r3 := NewRegion(s, []int32{c})
	if !r1.Intersects(r2) || r1.Intersects(r3) {
		t.Error("Intersects wrong")
	}
	u := r1.Union(r2)
	if u.Len() != 3 {
		t.Errorf("union size %d, want 3", u.Len())
	}
	if !u.ContainsAny([]int32{c}) || u.ContainsAny(nil) {
		t.Error("ContainsAny wrong")
	}
}

func TestRegionFilter(t *testing.T) {
	s := grid5x5()
	r := WholeRegion(s)
	evens := r.Filter(func(i int32) bool { return i%2 == 0 })
	if len(evens) != 13 {
		t.Errorf("filter returned %d nodes, want 13", len(evens))
	}
}

func TestRegionNodesSorted(t *testing.T) {
	s := grid5x5()
	r := NewRegion(s, []int32{20, 3, 11, 3})
	nodes := r.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("duplicate node not deduped: %v", nodes)
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("nodes not strictly ascending: %v", nodes)
		}
	}
}

func TestForestBasics(t *testing.T) {
	s := MustStructure(lineCoords(4))
	f := NewForest(s)
	f.SetRoot(0)
	f.SetParent(1, 0)
	f.SetParent(2, 1)
	if err := f.Check(); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	if f.Member(3) {
		t.Error("node 3 should not be a member")
	}
	if got := f.RootOf(2); got != 0 {
		t.Errorf("RootOf(2) = %d", got)
	}
	if got := f.Depth(2); got != 2 {
		t.Errorf("Depth(2) = %d", got)
	}
	if got := f.Depth(3); got != -1 {
		t.Errorf("Depth of non-member = %d", got)
	}
	if roots := f.Roots(); len(roots) != 1 || roots[0] != 0 {
		t.Errorf("Roots = %v", roots)
	}
	if f.Size() != 3 {
		t.Errorf("Size = %d", f.Size())
	}
	ch := f.Children()
	if len(ch[0]) != 1 || ch[0][0] != 1 {
		t.Errorf("Children[0] = %v", ch[0])
	}
}

func TestForestCheckRejectsCycle(t *testing.T) {
	s := MustStructure(lineCoords(3))
	f := NewForest(s)
	f.SetParent(0, 1)
	f.SetParent(1, 0)
	if err := f.Check(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestForestCheckRejectsNonAdjacentParent(t *testing.T) {
	s := MustStructure(lineCoords(4))
	f := NewForest(s)
	f.SetRoot(0)
	f.SetParent(3, 0)
	if err := f.Check(); err == nil {
		t.Error("non-adjacent parent accepted")
	}
}

func TestForestCheckRejectsNonMemberParent(t *testing.T) {
	s := MustStructure(lineCoords(3))
	f := NewForest(s)
	f.SetParent(1, 0) // 0 is not a member
	if err := f.Check(); err == nil {
		t.Error("non-member parent accepted")
	}
}

func TestForestCloneIndependent(t *testing.T) {
	s := MustStructure(lineCoords(3))
	f := NewForest(s)
	f.SetRoot(0)
	f.SetParent(2, 1)
	g := f.Clone()
	if g.Structure() != s || g.Parent(2) != 1 || !g.Member(0) || g.Member(1) {
		t.Fatal("clone differs from its source")
	}
	g.SetParent(1, 0)
	g.SetRoot(2)
	if f.Member(1) || f.Parent(2) != 1 {
		t.Error("clone mutation leaked into original")
	}
	f.Remove(0)
	f.SetParent(2, 0)
	if !g.Member(0) || g.Parent(2) != None {
		t.Error("original mutation leaked into clone")
	}
}
