package portal

import (
	"fmt"
	"sort"

	"spforest/amoebot"
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
	// FootOld / FootNew are the footprint cells present in the old / new
	// structure, as sorted node indices of the respective structure.
	FootOld []int32
	FootNew []int32
	// FootOldMark is FootOld as a bitmap.
	FootOldMark []bool
}

// NewPatchSpec assembles a PatchSpec, deriving the bitmap.
func NewPatchSpec(region *amoebot.Region, remap, footOld, footNew []int32) *PatchSpec {
	sp := &PatchSpec{
		Region: region, Remap: remap,
		FootOld: footOld, FootNew: footNew,
		FootOldMark: make([]bool, len(remap)),
	}
	for _, i := range footOld {
		sp.FootOldMark[i] = true
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
	n2 := sp.Region.Structure().N()
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
