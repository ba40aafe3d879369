package amoebot

import (
	"fmt"
	"math/bits"
	"sort"

	"spforest/internal/dense"
)

// Region is a subset of a Structure's amoebots. The divide-and-conquer
// forest algorithm (paper §5.4) decomposes the structure into regions that
// overlap on their separating portals; algorithms therefore run on Regions
// with adjacency restricted to the member set.
type Region struct {
	s     *Structure
	words []uint64
	nodes []int32 // cached ascending member list
}

// WholeRegion returns the region containing every amoebot of s.
func WholeRegion(s *Structure) *Region {
	return WholeRegionFrom(s, nil)
}

// WholeRegionFrom is WholeRegion sharing the node list of prev, a whole
// region of a structure with as many amoebots as s: a whole region's node
// list is the identity 0, 1, …, n−1, so a chain of derived structures of
// one size keeps one identity list instead of writing one per structure.
// The shared list lives as long as any region holding it, and only a list
// of s's own size is shared, so none larger than s's is kept alive. A nil
// prev, or one not whole or of another size, gets a fresh list.
func WholeRegionFrom(s *Structure, prev *Region) *Region {
	n := s.N()
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		words[len(words)-1] = (uint64(1) << uint(r)) - 1
	}
	if prev != nil && prev.Len() == n && prev.s.N() == n {
		return &Region{s: s, words: words, nodes: prev.nodes}
	}
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	return &Region{s: s, words: words, nodes: nodes}
}

// NewRegion returns the region of s containing exactly the given nodes.
func NewRegion(s *Structure, nodes []int32) *Region {
	words := make([]uint64, (s.N()+63)/64)
	for _, i := range nodes {
		words[i/64] |= 1 << uint(i%64)
	}
	r := &Region{s: s, words: words}
	r.rebuildNodes()
	return r
}

func (r *Region) rebuildNodes() {
	n := 0
	for _, w := range r.words {
		n += bits.OnesCount64(w)
	}
	r.nodes = make([]int32, 0, n)
	for wi, w := range r.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			r.nodes = append(r.nodes, int32(wi*64+b))
			w &= w - 1
		}
	}
}

// Structure returns the underlying structure.
func (r *Region) Structure() *Structure { return r.s }

// Len returns the number of amoebots in the region.
func (r *Region) Len() int { return len(r.nodes) }

// Nodes returns the member node indices in ascending order. The returned
// slice must not be modified.
func (r *Region) Nodes() []int32 { return r.nodes }

// Contains reports whether node i belongs to the region.
func (r *Region) Contains(i int32) bool {
	return r.words[i/64]&(1<<uint(i%64)) != 0
}

// Neighbor returns i's neighbor in direction d restricted to the region,
// or None.
func (r *Region) Neighbor(i int32, d Direction) int32 {
	j := r.s.Neighbor(i, d)
	if j == None || !r.Contains(j) {
		return None
	}
	return j
}

// Degree returns the number of region-internal neighbors of i.
func (r *Region) Degree(i int32) int {
	deg := 0
	for d := Direction(0); d < NumDirections; d++ {
		if r.Neighbor(i, d) != None {
			deg++
		}
	}
	return deg
}

// Union returns the region containing the members of r and o.
func (r *Region) Union(o *Region) *Region {
	if r.s != o.s {
		panic("amoebot: region union across structures")
	}
	words := make([]uint64, len(r.words))
	for i := range words {
		words[i] = r.words[i] | o.words[i]
	}
	out := &Region{s: r.s, words: words}
	out.rebuildNodes()
	return out
}

// Intersects reports whether r and o share at least one node.
func (r *Region) Intersects(o *Region) bool {
	for i := range r.words {
		if r.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAny reports whether any of the given nodes belongs to the region.
func (r *Region) ContainsAny(nodes []int32) bool {
	for _, i := range nodes {
		if r.Contains(i) {
			return true
		}
	}
	return false
}

// Filter returns the members of the region satisfying keep, ascending.
func (r *Region) Filter(keep func(int32) bool) []int32 {
	var out []int32
	for _, i := range r.nodes {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}

// IsConnected reports whether the region induces a connected subgraph.
func (r *Region) IsConnected() bool {
	if len(r.nodes) == 0 {
		return false
	}
	return len(r.Components()) == 1
}

// Components returns the connected components of the region as regions,
// ordered by their smallest node index.
func (r *Region) Components() []*Region {
	seen := dense.Shared.BitSet(r.s.N())
	defer dense.Shared.PutBitSet(seen)
	var comps []*Region
	var stack []int32
	for _, start := range r.nodes {
		if seen.Has(start) {
			continue
		}
		var comp []int32
		seen.Add(start)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for d := Direction(0); d < NumDirections; d++ {
				if v := r.Neighbor(u, d); v != None && !seen.Has(v) {
					seen.Add(v)
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, NewRegion(r.s, comp))
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].nodes[0] < comps[j].nodes[0] })
	return comps
}

func (r *Region) String() string {
	return fmt.Sprintf("Region(%d/%d nodes)", r.Len(), r.s.N())
}
