package core

import (
	"fmt"
	"slices"
	"sort"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
)

// splitRegions is the outcome of the §5.4.1 decomposition of the structure
// along the portals of Q' = Q ∪ A_Q.
type splitRegions struct {
	ports *portal.Portals
	inQP  []bool // per portal: member of Q'

	// marksOf lists, per portal, its still-marked amoebots (connectors
	// towards V_Q neighbors minus the westernmost), in ascending x order;
	// nil outside Q'.
	marksOf [][]int32

	// segmentsOf lists, per portal, its node runs split at the marked
	// amoebots; marks belong to both adjacent segments. Segments are in
	// ascending x order; nil outside Q'.
	segmentsOf [][][]int32

	// regions are the base regions: each intersects at least one portal of
	// Q' and overlaps its neighbors on portal segments. Lemma 52 bounds the
	// Q' portals a region meets by two; this split does not keep that bound
	// (see buildSplit).
	regions []*baseRegion
}

type baseRegion struct {
	nodes *amoebot.Region
	// qpPortals lists the region's Q' portals (one or more), ascending.
	qpPortals []int32
	// sides holds, per entry of qpPortals, the side of that portal the
	// region's segment copies lie on. The construction joins a blob only to
	// the copy on its own side (Lemma 52), and no path of a hole-free
	// structure crosses a portal elsewhere (Lemma 9), so the region minus
	// the portal lies on that side. noSide marks a fused pure-segment
	// region: both copies of one segment and no body.
	sides []amoebot.Side
	// segs lists the region's segment copies as (portal, segment index).
	segs [][2]int32
}

// noSide is the side of a region holding both copies of one segment and
// nothing else: it has no body to propagate into.
const noSide = amoebot.NumSides

// segCopy identifies one side copy of one segment of one Q' portal in the
// region-construction graph H.
type segCopy struct {
	portal int32
	seg    int32
	side   amoebot.Side
}

// buildSplit computes marks, segments and base regions. It mirrors the
// paper's construction: split the structure at every Q' portal (the portal
// joining both sides), then split further at the marked amoebots; the base
// regions are the components of the graph H of blobs and segment copies.
// Lemma 52 states that every region then meets at most two portals of Q',
// but the regions this split builds can meet more: Comb(8, 250) with k = 4
// gives one meeting four, and 9 of 100 k = 16 source sets on the 16k
// benchmark blob give one meeting three. baseCase handles any number, one
// line forest per portal merged in turn.
func buildSplit(region *amoebot.Region, ports *portal.Portals, inQP []bool, rp *portal.RootPruneResult, ar *dense.Arena) *splitRegions {
	s := region.Structure()
	sp := &splitRegions{
		ports:      ports,
		inQP:       inQP,
		marksOf:    make([][]int32, ports.Len()),
		segmentsOf: make([][][]int32, ports.Len()),
	}
	// Marks: every Q' portal marks its connector towards each V_Q neighbor,
	// then unmarks the westernmost mark. isMark deduplicates connectors (one
	// amoebot can connect towards several neighbors) and afterwards holds
	// the marks that remain; segFirst maps every Q' portal amoebot to the
	// first segment holding it (a mark also begins the next one).
	isMark := ar.BitSet(s.N())
	defer ar.PutBitSet(isMark)
	segFirst := ar.Int32s(s.N())
	defer ar.PutInt32s(segFirst)
	for id := int32(0); id < int32(ports.Len()); id++ {
		if !inQP[id] {
			continue
		}
		var marks []int32
		for _, nb := range ports.Nbr[id] {
			// The edge to nb survives pruning iff nb is the parent (id is
			// in V_Q as a Q' member) or nb is a surviving child.
			if nb == rp.Parent[id] || (rp.Parent[nb] == id && rp.InVQ[nb]) {
				if m := ports.Connector(id, nb); !isMark.Has(m) {
					isMark.Add(m)
					marks = append(marks, m)
				}
			}
		}
		sort.Slice(marks, func(a, b int) bool {
			return s.Coord(marks[a]).X < s.Coord(marks[b]).X
		})
		if len(marks) > 0 {
			isMark.Remove(marks[0])
			marks = marks[1:] // unmark the westernmost
		}
		sp.marksOf[id] = marks
		// Segments: the portal's node run split at the marks, marks
		// belonging to both sides. The run and the marks are both in
		// ascending x order, so one cursor walks them in lockstep.
		run := ports.NodesOf(id)
		mi := 0
		var segs [][]int32
		cur := []int32{}
		for _, u := range run {
			segFirst[u] = int32(len(segs))
			cur = append(cur, u)
			if mi < len(marks) && marks[mi] == u {
				mi++
				segs = append(segs, cur)
				cur = []int32{u}
			}
		}
		segs = append(segs, cur)
		sp.segmentsOf[id] = segs
	}

	// H-graph: vertices are the blobs (components of region minus Q'
	// portal nodes) and the side copies of the segments; edges follow the
	// crossing edges incident to Q' portal nodes. Base regions are the
	// connected components of H.
	qpPortalOf := ar.Index(s.N()) // node -> its Q' portal id
	defer ar.PutIndex(qpPortalOf)
	var qpNodes []int32
	for id := int32(0); id < int32(ports.Len()); id++ {
		if !inQP[id] {
			continue
		}
		for _, u := range ports.NodesOf(id) {
			qpPortalOf.Set(u, id)
			qpNodes = append(qpNodes, u)
		}
	}
	// segsOf returns the segments holding the Q' portal amoebot u: first
	// to last, two for a mark.
	segsOf := func(u int32) (first, last int32) {
		first = segFirst[u]
		if isMark.Has(u) {
			return first, first + 1
		}
		return first, first
	}

	rest := region.Filter(func(i int32) bool { return !qpPortalOf.Has(i) })
	blobs := amoebot.NewRegion(s, rest).Components()
	blobOf := ar.Index(s.N())
	defer ar.PutIndex(blobOf)
	for bi, b := range blobs {
		for _, u := range b.Nodes() {
			blobOf.Set(u, int32(bi))
		}
	}

	// Union-find over H vertices: blobs first, then segment copies.
	copyIdx := make(map[segCopy]int)
	var copies []segCopy
	idxOf := func(c segCopy) int {
		if i, ok := copyIdx[c]; ok {
			return i
		}
		i := len(blobs) + len(copies)
		copyIdx[c] = i
		copies = append(copies, c)
		return i
	}
	parent := make([]int, len(blobs), len(blobs)+16)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for x >= len(parent) {
			parent = append(parent, len(parent))
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		find(a)
		find(b)
		parent[find(a)] = find(b)
	}

	for _, u := range qpNodes {
		id := qpPortalOf.At(u)
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if d.Axis() == amoebot.AxisX {
				continue
			}
			v := region.Neighbor(u, d)
			if v == amoebot.None {
				continue
			}
			side, _ := amoebot.AxisX.SideOf(d)
			first, last := segsOf(u)
			for si := first; si <= last; si++ {
				from := idxOf(segCopy{portal: id, seg: si, side: side})
				if bi, isBlob := blobOf.Get(v); isBlob {
					union(from, int(bi))
				} else {
					// v belongs to another Q' portal: connect the two
					// segment copies (their facing sides).
					vp := qpPortalOf.At(v)
					oside, _ := amoebot.AxisX.SideOf(d.Opposite())
					vfirst, vlast := segsOf(v)
					for vsi := vfirst; vsi <= vlast; vsi++ {
						union(from, idxOf(segCopy{portal: vp, seg: vsi, side: oside}))
					}
				}
			}
		}
	}
	// Make sure both side copies of every segment exist, so no amoebot is
	// left uncovered.
	for id := int32(0); id < int32(ports.Len()); id++ {
		for si := range sp.segmentsOf[id] {
			idxOf(segCopy{portal: id, seg: int32(si), side: amoebot.SideA})
			idxOf(segCopy{portal: id, seg: int32(si), side: amoebot.SideB})
		}
	}

	// A "solo" component consists of the copies of a single segment with no
	// blobs or pairs attached. If both side copies of a segment are solo
	// (e.g. a pure-line structure), they fuse into one segment region; a
	// solo copy whose sibling is attached somewhere is dropped — the
	// segment is already covered by the sibling's region.
	group := make(map[int][]int)
	regroup := func() {
		group = make(map[int][]int)
		for i := 0; i < len(blobs); i++ {
			group[find(i)] = append(group[find(i)], i)
		}
		for ci := range copies {
			i := len(blobs) + ci
			group[find(i)] = append(group[find(i)], i)
		}
	}
	regroup()
	isSolo := func(root int) bool {
		members := group[root]
		for _, m := range members {
			if m < len(blobs) {
				return false
			}
			c := copies[m-len(blobs)]
			c0 := copies[members[0]-len(blobs)]
			if c.portal != c0.portal || c.seg != c0.seg {
				return false
			}
		}
		return true
	}
	dropped := map[int]bool{}
	for root := range group {
		if !isSolo(root) {
			continue
		}
		c := copies[group[root][0]-len(blobs)]
		other := amoebot.SideA
		if c.side == amoebot.SideA {
			other = amoebot.SideB
		}
		sibling := find(idxOf(segCopy{portal: c.portal, seg: c.seg, side: other}))
		if sibling == root {
			continue // both copies already together: a valid segment region
		}
		if isSolo(sibling) {
			union(root, sibling)
		} else {
			dropped[root] = true
		}
	}
	regroup()
	for root := range dropped {
		if find(root) == root {
			delete(group, root)
		}
	}

	roots := make([]int, 0, len(group))
	for root := range group {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	nodeSeen := ar.BitSet(s.N())
	defer ar.PutBitSet(nodeSeen)
	for _, root := range roots {
		members := group[root]
		var nodes []int32
		var qps []int32
		var sides []amoebot.Side
		var segs [][2]int32
		addNode := func(u int32) {
			if !nodeSeen.Has(u) {
				nodeSeen.Add(u)
				nodes = append(nodes, u)
			}
		}
		for _, m := range members {
			if m < len(blobs) {
				for _, u := range blobs[m].Nodes() {
					addNode(u)
				}
				continue
			}
			c := copies[m-len(blobs)]
			if k, known := slices.BinarySearch(qps, c.portal); !known {
				qps = slices.Insert(qps, k, c.portal)
				sides = slices.Insert(sides, k, c.side)
			} else if sides[k] != c.side {
				// Both side copies of one segment and nothing else: a
				// fused pure-segment region, which has no body.
				if len(members) != 2 || segs[0] != [2]int32{c.portal, c.seg} {
					panic(fmt.Sprintf("core: base region lies on both sides of Q' portal %d", c.portal))
				}
				sides[k] = noSide
			}
			segs = append(segs, [2]int32{c.portal, c.seg})
			for _, u := range sp.segmentsOf[c.portal][c.seg] {
				addNode(u)
			}
		}
		for _, u := range nodes {
			nodeSeen.Remove(u) // targeted cleanup keeps the set reusable
		}
		if len(nodes) == 0 {
			continue
		}
		sp.regions = append(sp.regions, &baseRegion{
			nodes:     amoebot.NewRegion(s, nodes),
			qpPortals: qps,
			sides:     sides,
			segs:      dedupeSegs(segs),
		})
	}
	return sp
}

func dedupeSegs(segs [][2]int32) [][2]int32 {
	seen := map[[2]int32]bool{}
	var out [][2]int32
	for _, sg := range segs {
		if !seen[sg] {
			seen[sg] = true
			out = append(out, sg)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// portalNodesIn returns the contiguous run of the given portal's nodes that
// belong to the region (its segments within the region), ascending in x.
func (sp *splitRegions) portalNodesIn(br *baseRegion, id int32) []int32 {
	var out []int32
	for _, sg := range br.segs {
		if sg[0] != id {
			continue
		}
		out = append(out, sp.segmentsOf[id][sg[1]]...)
	}
	s := sp.ports.Region.Structure()
	sort.Slice(out, func(a, b int) bool { return s.Coord(out[a]).X < s.Coord(out[b]).X })
	// Adjacent segments share their splitting mark; drop the duplicates the
	// sort brought together.
	dedup := out[:0]
	for i, u := range out {
		if i == 0 || u != out[i-1] {
			dedup = append(dedup, u)
		}
	}
	out = dedup
	for i := 1; i < len(out); i++ {
		if s.Coord(out[i]).X != s.Coord(out[i-1]).X+1 {
			panic("core: region's portal segments are not contiguous")
		}
	}
	return out
}
