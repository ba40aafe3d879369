package amoebot

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// These tests pin the observable behaviour of Forest independently of its
// storage: every transition, query, copy and encoding below must hold for
// any representation of the (member, parent) pairs.

// forestLine returns a straight line of n amoebots along the x-axis and
// the node index of each position, west to east.
func forestLine(t *testing.T, n int) (*Structure, []int32) {
	t.Helper()
	s := MustStructure(lineCoords(n))
	idx := make([]int32, n)
	for x := range idx {
		i, ok := s.Index(XZ(x, 0))
		if !ok {
			t.Fatalf("line position %d missing", x)
		}
		idx[x] = i
	}
	return s, idx
}

func wantNode(t *testing.T, f *Forest, i int32, member bool, parent int32) {
	t.Helper()
	if got := f.Member(i); got != member {
		t.Fatalf("Member(%d) = %v, want %v", i, got, member)
	}
	if got := f.Parent(i); got != parent {
		t.Fatalf("Parent(%d) = %d, want %d", i, got, parent)
	}
}

func TestForestTransitions(t *testing.T) {
	s, n := forestLine(t, 4)
	f := NewForest(s)
	for i := int32(0); i < int32(s.N()); i++ {
		wantNode(t, f, i, false, None)
	}
	f.SetRoot(n[0])
	wantNode(t, f, n[0], true, None)
	f.SetParent(n[1], n[0]) // non-member → child
	wantNode(t, f, n[1], true, n[0])
	f.SetParent(n[0], n[1]) // root → child
	wantNode(t, f, n[0], true, n[1])
	f.SetRoot(n[0]) // child → root
	wantNode(t, f, n[0], true, None)
	f.SetParent(n[1], n[2]) // re-parent
	wantNode(t, f, n[1], true, n[2])
	f.Remove(n[1]) // child → non-member
	wantNode(t, f, n[1], false, None)
	f.Remove(n[0]) // root → non-member
	wantNode(t, f, n[0], false, None)
	f.Remove(n[3]) // removing a non-member is a no-op
	wantNode(t, f, n[3], false, None)
	f.SetParent(n[2], None) // a parent of None makes a root
	wantNode(t, f, n[2], true, None)
	if got := f.Roots(); !slices.Equal(got, []int32{n[2]}) {
		t.Fatalf("Roots = %v, want [%d]", got, n[2])
	}
	f.SetRoot(n[3])
	f.SetParent(n[1], n[2])
	f.Remove(n[2]) // orphans n[1]: its parent stays recorded
	wantNode(t, f, n[1], true, n[2])
	if f.Size() != 2 {
		t.Fatalf("Size = %d, want 2", f.Size())
	}
}

func TestForestQueries(t *testing.T) {
	s := MustStructure(parallelogramCoords(5, 3))
	f := NewForest(s)
	at := func(x, z int) int32 {
		i, ok := s.Index(XZ(x, z))
		if !ok {
			t.Fatalf("(%d,%d) not in structure", x, z)
		}
		return i
	}
	// Two trees: a row hanging off (0,0) and a column off (4,2).
	f.SetRoot(at(0, 0))
	for x := 1; x < 5; x++ {
		f.SetParent(at(x, 0), at(x-1, 0))
	}
	f.SetRoot(at(4, 2))
	f.SetParent(at(4, 1), at(4, 2))
	f.SetParent(at(3, 1), at(4, 1))
	f.SetParent(at(3, 2), at(4, 2))
	if err := f.Check(); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	var members, roots []int32
	for i := int32(0); i < int32(s.N()); i++ {
		if f.Member(i) {
			members = append(members, i)
			if f.Parent(i) == None {
				roots = append(roots, i)
			}
		}
	}
	if got := f.Members(); !slices.Equal(got, members) || !slices.IsSorted(got) {
		t.Fatalf("Members = %v, want %v ascending", got, members)
	}
	if got := f.Roots(); !slices.Equal(got, roots) || len(got) != 2 {
		t.Fatalf("Roots = %v, want %v", got, roots)
	}
	if f.Size() != 9 {
		t.Fatalf("Size = %d, want 9", f.Size())
	}
	if got := f.RootOf(at(4, 0)); got != at(0, 0) {
		t.Fatalf("RootOf((4,0)) = %d", got)
	}
	if got := f.Depth(at(4, 0)); got != 4 {
		t.Fatalf("Depth((4,0)) = %d", got)
	}
	if got := f.RootOf(at(3, 1)); got != at(4, 2) {
		t.Fatalf("RootOf((3,1)) = %d", got)
	}
	if got := f.RootOf(at(0, 1)); got != None {
		t.Fatalf("RootOf(non-member) = %d", got)
	}
	ch := f.Children()
	if len(ch) != s.N() {
		t.Fatalf("Children has %d entries, want %d", len(ch), s.N())
	}
	for i := int32(0); i < int32(s.N()); i++ {
		var want []int32
		for c := int32(0); c < int32(s.N()); c++ {
			if f.Member(c) && f.Parent(c) == i {
				want = append(want, c)
			}
		}
		if !slices.Equal(ch[i], want) {
			t.Fatalf("Children[%d] = %v, want %v", i, ch[i], want)
		}
	}
}

func TestForestRootOfAndDepthOnCycle(t *testing.T) {
	s, n := forestLine(t, 4)
	f := NewForest(s)
	f.SetParent(n[0], n[1])
	f.SetParent(n[1], n[0])
	f.SetParent(n[2], n[1]) // hangs off the cycle
	for _, i := range n[:3] {
		if got := f.RootOf(i); got != None {
			t.Errorf("RootOf(%d) on a cycle = %d, want None", i, got)
		}
		if got := f.Depth(i); got != -1 {
			t.Errorf("Depth(%d) on a cycle = %d, want -1", i, got)
		}
	}
	g := NewForest(s)
	g.SetParent(n[3], n[2]) // n[2] is not a member
	if got := g.RootOf(n[3]); got != None {
		t.Errorf("RootOf through a non-member parent = %d, want None", got)
	}
	if got := g.Depth(n[3]); got != -1 {
		t.Errorf("Depth through a non-member parent = %d, want -1", got)
	}
}

func TestForestCheckErrors(t *testing.T) {
	s, n := forestLine(t, 4)
	cases := []struct {
		name  string
		build func(f *Forest)
		want  string
	}{
		{"cycle", func(f *Forest) {
			f.SetParent(n[0], n[1])
			f.SetParent(n[1], n[0])
		}, "cycle"},
		{"non-member parent", func(f *Forest) {
			f.SetRoot(n[3])
			f.SetParent(n[1], n[0])
		}, "non-member parent"},
		{"non-adjacent parent", func(f *Forest) {
			f.SetRoot(n[0])
			f.SetParent(n[3], n[0])
		}, "not adjacent"},
	}
	for _, tc := range cases {
		f := NewForest(s)
		tc.build(f)
		err := f.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	ok := NewForest(s)
	ok.SetRoot(n[1])
	ok.SetParent(n[0], n[1])
	ok.SetParent(n[2], n[1])
	ok.SetParent(n[3], n[2])
	if err := ok.Check(); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
}

func TestForestTextRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := MustStructure(parallelogramCoords(9, 7))
	for trial := 0; trial < 20; trial++ {
		// A BFS forest from a few random roots, with random subtrees cut off.
		f := NewForest(s)
		var queue []int32
		for r := 0; r < 1+rng.Intn(4); r++ {
			root := int32(rng.Intn(s.N()))
			if !f.Member(root) {
				f.SetRoot(root)
				queue = append(queue, root)
			}
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := Direction(0); d < NumDirections; d++ {
				if v := s.Neighbor(u, d); v != None && !f.Member(v) && rng.Intn(10) > 0 {
					f.SetParent(v, u)
					queue = append(queue, v)
				}
			}
		}
		data, err := f.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		g, err := ParseForest(s, data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := int32(0); i < int32(s.N()); i++ {
			wantNode(t, g, i, f.Member(i), f.Parent(i))
		}
		again, err := g.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("trial %d: re-encoding differs", trial)
		}
		if lines := bytes.Count(data, []byte("\n")); lines != f.Size() {
			t.Fatalf("trial %d: %d lines for %d members", trial, lines, f.Size())
		}
	}
}

// parallelogramCoords returns a w×h parallelogram of amoebots.
func parallelogramCoords(w, h int) []Coord {
	var cs []Coord
	for z := 0; z < h; z++ {
		for x := 0; x < w; x++ {
			cs = append(cs, XZ(x, z))
		}
	}
	return cs
}

// TestScratchForestStartsEmpty: every scratch forest starts with no
// member, however earlier ones over structures of other sizes set and
// released different node sets, from four goroutines at once.
func TestScratchForestStartsEmpty(t *testing.T) {
	var lines []*Structure
	for _, n := range []int{5, 40, 17, 90} {
		s, _ := forestLine(t, n)
		lines = append(lines, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				s := lines[(g+i)%len(lines)]
				f := NewScratchForest(s)
				if m := f.Members(); len(m) != 0 {
					t.Errorf("goroutine %d: scratch forest starts with members %v", g, m)
					return
				}
				var touched []int32
				for u := int32(rng.Intn(3)); u < int32(s.N()); u += 1 + int32(rng.Intn(4)) {
					if u == 0 || rng.Intn(3) == 0 {
						f.SetRoot(u)
					} else {
						f.SetParent(u, u-1)
					}
					touched = append(touched, u)
				}
				f.ReleaseScratch(touched)
			}
		}(g)
	}
	wg.Wait()
}
