package portal

import (
	"fmt"
	"sort"

	"spforest/amoebot"
	"spforest/internal/ett"
)

// PatchSpec describes one structure mutation to the portal layer: the index
// remappings between the old and new structures and the delta's footprint
// (the mutated cells plus their closed neighborhoods, amoebot.Footprint).
// One spec serves all three axes of an Engine.Apply.
//
// The footprint is the locality boundary: a cell outside it keeps its
// occupancy and its entire neighborhood, so every purely local property —
// run maximality, the crossing tree-edge rule (IsTreeEdge inspects only
// u's own neighborhood) — is preserved verbatim for such cells.
type PatchSpec struct {
	// Region is the new structure's whole region.
	Region *amoebot.Region
	// Remap maps old node index -> new node index (-1 for removed cells).
	Remap []int32
	// OldOf maps new node index -> old node index (-1 for added cells).
	OldOf []int32
	// FootOld / FootNew are the footprint cells present in the old / new
	// structure, as sorted node indices of the respective structure.
	FootOld []int32
	FootNew []int32
	// FootOldMark / FootNewMark are the same sets as bitmaps.
	FootOldMark []bool
	FootNewMark []bool
}

// NewPatchSpec assembles a PatchSpec, deriving the bitmaps.
func NewPatchSpec(region *amoebot.Region, remap, oldOf, footOld, footNew []int32) *PatchSpec {
	sp := &PatchSpec{
		Region: region, Remap: remap, OldOf: oldOf,
		FootOld: footOld, FootNew: footNew,
		FootOldMark: make([]bool, len(remap)),
		FootNewMark: make([]bool, len(oldOf)),
	}
	for _, i := range footOld {
		sp.FootOldMark[i] = true
	}
	for _, i := range footNew {
		sp.FootNewMark[i] = true
	}
	return sp
}

// Patch derives the new structure's portal decomposition from the
// receiver's by repairing only the delta's dirty zone. Portals with no
// node in the footprint survive exactly — their (remapped) node sets are
// still maximal runs, because both run membership and maximality depend
// only on their cells' unchanged neighborhoods — so their CSR spans are
// copied through the remap and their crossing-edge entries migrate by key
// translation. Every other new run consists entirely of dirty-zone nodes
// (footprint cells plus survivors of footprint-intersecting portals) and
// is rebuilt by the same scan Compute uses, restricted to that zone.
//
// New portal ids are assigned in ascending run-start order, exactly as
// Compute assigns them, so the result is deep-equal to
// Compute(sp.Region, p.Axis). Both decompositions must cover whole
// structures (the engine's use).
func (p *Portals) Patch(sp *PatchSpec) *Portals {
	if len(p.nodes) != len(sp.Remap) {
		panic("portal: Patch requires a whole-structure decomposition")
	}
	n2 := len(sp.OldOf)
	pos, neg := p.Axis.Positive(), p.Axis.Negative()

	// Dirty old portals: any portal owning a footprint cell.
	dirty := make([]bool, p.Len())
	for _, i := range sp.FootOld {
		dirty[p.ID[i]] = true
	}
	// Dirty zone (new indices) and the new run starts inside it. Every node
	// of every non-surviving new run lies in the zone: a node outside the
	// footprint whose old portal were clean would make its maximal run that
	// clean portal's image.
	zone := make([]bool, n2)
	var starts []int32
	addZone := func(w int32) {
		if zone[w] {
			return
		}
		zone[w] = true
		if sp.Region.Neighbor(w, neg) == amoebot.None {
			starts = append(starts, w)
		}
	}
	for _, w := range sp.FootNew {
		addZone(w)
	}
	cleanIDs := make([]int32, 0, p.Len())
	for id := int32(0); id < int32(p.Len()); id++ {
		if !dirty[id] {
			cleanIDs = append(cleanIDs, id)
			continue
		}
		for _, g := range p.NodesOf(id) {
			if w := sp.Remap[g]; w >= 0 {
				addZone(w)
			}
		}
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })

	np := &Portals{
		Axis:   p.Axis,
		Region: sp.Region,
		ID:     make([]int32, n2),
		nodes:  make([]int32, 0, n2),
		off:    make([]int32, 1, p.Len()+len(starts)+1),
		conn:   make(map[[2]int32]connEnds, len(p.conn)),
	}
	// Merge surviving portals (ascending old id — their new starts ascend
	// with them, the remap being monotonic) with the dirty-zone runs
	// (ascending start): ids come out in ascending new-run-start order,
	// matching Compute's assignment.
	ci, di := 0, 0
	for ci < len(cleanIDs) || di < len(starts) {
		takeClean := di == len(starts) ||
			(ci < len(cleanIDs) && sp.Remap[p.Rep(cleanIDs[ci])] < starts[di])
		if takeClean {
			id := cleanIDs[ci]
			ci++
			for _, g := range p.NodesOf(id) {
				np.nodes = append(np.nodes, sp.Remap[g])
			}
		} else {
			w := starts[di]
			di++
			for v := w; v != amoebot.None; v = sp.Region.Neighbor(v, pos) {
				np.nodes = append(np.nodes, v)
			}
		}
		np.off = append(np.off, int32(len(np.nodes)))
	}
	if len(np.nodes) != n2 {
		panic(fmt.Sprintf("portal: Patch covered %d of %d nodes", len(np.nodes), n2))
	}
	for id := int32(0); id < int32(np.Len()); id++ {
		for _, w := range np.NodesOf(id) {
			np.ID[w] = id
		}
	}

	// Crossing-edge table: entries whose connector is outside the footprint
	// keep their (still unique, still tree) edge — only the ids and indices
	// are translated. Entries owned by footprint cells are recomputed by
	// the local rule, exactly as Compute would.
	for _, e := range p.conn {
		if sp.FootOldMark[e.u] {
			continue
		}
		nu, nv := sp.Remap[e.u], sp.Remap[e.v]
		key := [2]int32{np.ID[nu], np.ID[nv]}
		if prev, dup := np.conn[key]; dup && prev.u != nu {
			panic(fmt.Sprintf("portal: Patch: two crossing tree edges between portals %d and %d", key[0], key[1]))
		}
		np.conn[key] = connEnds{nu, nv}
	}
	for _, w := range sp.FootNew {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if d.Axis() == p.Axis || !np.IsTreeEdge(w, d) {
				continue
			}
			x := sp.Region.Neighbor(w, d)
			key := [2]int32{np.ID[w], np.ID[x]}
			if prev, dup := np.conn[key]; dup && prev.u != w {
				panic(fmt.Sprintf("portal: Patch: two crossing tree edges between portals %d and %d", key[0], key[1]))
			}
			np.conn[key] = connEnds{w, x}
		}
	}
	np.buildNbr()
	return np
}

// PatchWholeView derives the whole-structure view of a patched
// decomposition from the pre-patch whole-structure view, reusing every
// column the delta did not touch: implicit-tree rows of non-footprint
// nodes are copied through the remap (the local tree-edge rule guarantees
// them unchanged), only footprint rows are re-probed. The receiver must be
// the result of old.P.Patch(sp), and old a whole-structure view.
func (np *Portals) PatchWholeView(old *View, sp *PatchSpec) *View {
	if len(old.nodes) != len(sp.Remap) {
		panic("portal: PatchWholeView requires the pre-patch whole view")
	}
	n2 := len(sp.OldOf)
	v := &View{
		P:       np,
		IDs:     make([]int32, np.Len()),
		inView:  make([]bool, np.Len()),
		nodes:   make([]int32, n2),
		toLocal: make([]int32, n2),
	}
	for i := range v.IDs {
		v.IDs[i] = int32(i)
		v.inView[i] = true
	}
	for i := 0; i < n2; i++ {
		v.nodes[i] = int32(i)
		v.toLocal[i] = int32(i) + 1
	}
	// Implicit tree rows: whole-view local indices equal structure indices,
	// so clean rows are the old rows with the remap applied value-wise.
	oldRows := old.tree.Neighbors
	deg := make([]int32, n2+1)
	for w := 0; w < n2; w++ {
		if sp.FootNewMark[w] {
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if np.IsTreeEdge(int32(w), d) {
					deg[w+1]++
				}
			}
		} else {
			deg[w+1] = int32(len(oldRows[sp.OldOf[w]]))
		}
	}
	for w := 0; w < n2; w++ {
		deg[w+1] += deg[w]
	}
	flat := make([]int32, deg[n2])
	rows := make([][]int32, n2)
	for w := 0; w < n2; w++ {
		c := deg[w]
		if sp.FootNewMark[w] {
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if np.IsTreeEdge(int32(w), d) {
					flat[c] = sp.Region.Neighbor(int32(w), d)
					c++
				}
			}
		} else {
			for _, x := range oldRows[sp.OldOf[w]] {
				flat[c] = sp.Remap[x]
				c++
			}
		}
		rows[w] = flat[deg[w]:c:c]
	}
	// The new structure is valid (Apply verified hole-freeness), so the
	// patched rows form a tree by Lemma 9 — skip MustTree's O(n) walk.
	v.tree = &ett.Tree{Neighbors: rows}
	return v
}
