package core

import (
	"cmp"
	"fmt"
	"slices"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/sim"
)

// splitRegions is the outcome of the §5.4.1 decomposition of the structure
// along the portals of Q' = Q ∪ A_Q.
type splitRegions struct {
	ports *portal.Portals
	inQP  []bool // per portal: member of Q'

	// marksOf lists, per portal, its still-marked amoebots (connectors
	// towards V_Q neighbors minus the westernmost), ascending; nil outside
	// Q'. The marks split the portal into segments, each mark ending one
	// segment and beginning the next.
	marksOf [][]int32

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
	// runs holds, per entry of qpPortals, the region's amoebots on that
	// portal: consecutive whole segments, as a sub-slice of NodesOf.
	runs [][]int32
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

// splitAtQPrime derives Q, the x-portals holding sources, and Q' = Q ∪ A_Q
// (Lemma 51) on the portal tree rooted at the leader's portal, and splits
// the decomposition's region into base regions (§5.4.1), charging clock.
func splitAtQPrime(clock *sim.Clock, ar *dense.Arena, ports *portal.Portals, view *portal.View, sources []int32, leader int32) *splitRegions {
	inQ := ar.Bools(ports.Len())
	defer ar.PutBools(inQ)
	for _, src := range sources {
		inQ[ports.ID[src]] = true
	}
	clock.Tick(1) // sources beep on their portal circuits (computes Q)
	clock.AddBeeps(int64(len(sources)))
	rpQ := portal.RootPrune(clock, view, ports.ID[leader], inQ)
	inQP := portal.Augment(clock, view, rpQ) // A_Q, then Q ∪ A_Q
	for id, q := range inQ {
		inQP[id] = inQP[id] || q
	}
	sp := buildSplit(ports, inQP, rpQ, ar)
	clock.Tick(1) // unmark the westernmost marked amoebot per portal (Lemma 52)
	return sp
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
//
// An x-portal is a run of consecutive node indices, so a segment is a
// sub-slice of NodesOf and a node's segments follow from a binary search
// among its portal's marks.
func buildSplit(ports *portal.Portals, inQP []bool, rp *portal.RootPruneResult, ar *dense.Arena) *splitRegions {
	region := ports.Region
	s := region.Structure()
	sp := &splitRegions{ports: ports, inQP: inQP, marksOf: make([][]int32, ports.Len())}
	// Marks: every Q' portal marks its connector towards each neighbor
	// whose edge survives pruning (the parent, as id is in V_Q, and each
	// surviving child), then unmarks the westernmost. Its segment copies
	// take the copy slots from slot0[id] on, two per segment.
	slot0 := make([]int32, ports.Len())
	slots := int32(0)
	for id := int32(0); id < int32(ports.Len()); id++ {
		if !inQP[id] {
			continue
		}
		var marks []int32
		for _, nb := range ports.Nbr[id] {
			if nb == rp.Parent[id] || (rp.Parent[nb] == id && rp.InVQ[nb]) {
				marks = append(marks, ports.Connector(id, nb))
			}
		}
		slices.Sort(marks)
		marks = slices.Compact(marks) // one connector can face several neighbors
		if len(marks) > 0 {
			marks = marks[1:]
		}
		sp.marksOf[id] = marks
		slot0[id] = slots
		slots += 2 * int32(len(marks)+1)
	}
	// segmentsAt returns the segments of Q' portal id holding its amoebot
	// u: first to last, two for a mark.
	segmentsAt := func(id, u int32) (first, last int32) {
		k, isMark := slices.BinarySearch(sp.marksOf[id], u)
		if isMark {
			return int32(k), int32(k) + 1
		}
		return int32(k), int32(k)
	}

	// Blobs: the components of the region minus the Q' portals, labelled by
	// a depth-first search in the order of their smallest node. The label
	// column doubles as the search's visited set. ports.ID is -1 outside
	// the region, so the search reads the structure's neighbors directly.
	blobOf := ar.Index(s.N())
	defer ar.PutIndex(blobOf)
	inBlob := func(u int32) bool {
		return u != amoebot.None && ports.ID[u] >= 0 && !inQP[ports.ID[u]] && !blobOf.Has(u)
	}
	var blobs [][]int32
	var stack []int32
	for _, start := range region.Nodes() {
		if !inBlob(start) {
			continue
		}
		bi := int32(len(blobs))
		var blob []int32
		blobOf.Set(start, bi)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			blob = append(blob, u)
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if v := s.Neighbor(u, d); inBlob(v) {
					blobOf.Set(v, bi)
					stack = append(stack, v)
				}
			}
		}
		blobs = append(blobs, blob)
	}

	// H: its vertices are the blobs and the side copies of the segments
	// that crossing edges reach, numbered after the blobs in the order they
	// are first reached; its edges are the crossing edges at Q' portal
	// amoebots. The base regions are its components.
	vertexOf := slices.Repeat([]int32{-1}, int(slots)) // per copy slot: its H vertex, -1 while unreached
	var copies []segCopy
	parent := make([]int, len(blobs), len(blobs)+16)
	for i := range parent {
		parent[i] = i
	}
	vertex := func(c segCopy) int {
		k := slot0[c.portal] + 2*c.seg + int32(c.side)
		if vertexOf[k] < 0 {
			vertexOf[k] = int32(len(parent))
			parent = append(parent, len(parent))
			copies = append(copies, c)
		}
		return int(vertexOf[k])
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for id := int32(0); id < int32(ports.Len()); id++ {
		if !inQP[id] {
			continue
		}
		for _, u := range ports.NodesOf(id) {
			first, last := segmentsAt(id, u)
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if d.Axis() == amoebot.AxisX {
					continue
				}
				v := s.Neighbor(u, d)
				if v == amoebot.None || ports.ID[v] < 0 {
					continue
				}
				side, _ := amoebot.AxisX.SideOf(d)
				for si := first; si <= last; si++ {
					from := vertex(segCopy{portal: id, seg: si, side: side})
					if bi, isBlob := blobOf.Get(v); isBlob {
						union(from, int(bi))
						continue
					}
					// v lies on another Q' portal: join the two facing
					// segment copies.
					vp := ports.ID[v]
					oside, _ := amoebot.AxisX.SideOf(d.Opposite())
					vfirst, vlast := segmentsAt(vp, v)
					for vsi := vfirst; vsi <= vlast; vsi++ {
						union(from, vertex(segCopy{portal: vp, seg: vsi, side: oside}))
					}
				}
			}
		}
	}
	if len(copies) == 0 {
		// No crossing edge leaves Q', so the connected region is one row:
		// a Q' portal without marks, whose two side copies fuse into one
		// region with no body.
		if ports.Len() != 1 {
			panic("core: Q' portals without crossing edges in a region of several rows")
		}
		sp.regions = []*baseRegion{{nodes: region, qpPortals: []int32{0}, sides: []amoebot.Side{noSide}, runs: [][]int32{ports.NodesOf(0)}}}
		return sp
	}
	// A mark has a crossing edge, and so does a portal without marks in a
	// connected region of several rows: every segment has a reached copy.
	for k := 0; k < len(vertexOf); k += 2 {
		if vertexOf[k] < 0 && vertexOf[k+1] < 0 {
			panic("core: a Q' portal segment meets no crossing edge")
		}
	}

	// Collect the components in the order of their union-find roots, each
	// with its blobs' nodes and its segment copies.
	type component struct {
		nodes  []int32
		copies []segCopy
	}
	compOf := make([]int32, len(parent)) // per root: its component
	var comps []component
	for v := range parent {
		if find(v) == v {
			compOf[v] = int32(len(comps))
			comps = append(comps, component{})
		}
	}
	for v := range parent {
		c := &comps[compOf[find(v)]]
		if v < len(blobs) {
			c.nodes = append(c.nodes, blobs[v]...)
		} else {
			c.copies = append(c.copies, copies[v-len(blobs)])
		}
	}
	// A region's copies of one portal lie on one side and are consecutive
	// segments; their run is one sub-slice of NodesOf, from the first
	// segment's start (a mark or the representative) to the last one's end.
	for _, c := range comps {
		slices.SortFunc(c.copies, func(a, b segCopy) int {
			return cmp.Or(cmp.Compare(a.portal, b.portal), cmp.Compare(a.seg, b.seg))
		})
		br := &baseRegion{}
		for i, sc := range c.copies {
			pnodes, marks := ports.NodesOf(sc.portal), sp.marksOf[sc.portal]
			end := int32(len(pnodes))
			if int(sc.seg) < len(marks) {
				end = marks[sc.seg] - pnodes[0] + 1
			}
			if i > 0 && sc.portal == c.copies[i-1].portal {
				if sc.side != c.copies[i-1].side {
					panic(fmt.Sprintf("core: base region lies on both sides of Q' portal %d", sc.portal))
				}
				if sc.seg != c.copies[i-1].seg+1 {
					panic(fmt.Sprintf("core: base region's segments of Q' portal %d are not contiguous", sc.portal))
				}
				last := len(br.runs) - 1
				br.runs[last] = pnodes[br.runs[last][0]-pnodes[0] : end]
				continue
			}
			start := int32(0)
			if sc.seg > 0 {
				start = marks[sc.seg-1] - pnodes[0]
			}
			br.qpPortals = append(br.qpPortals, sc.portal)
			br.sides = append(br.sides, sc.side)
			br.runs = append(br.runs, pnodes[start:end])
		}
		for _, run := range br.runs {
			c.nodes = append(c.nodes, run...)
		}
		br.nodes = amoebot.NewRegion(s, c.nodes)
		sp.regions = append(sp.regions, br)
	}
	return sp
}
