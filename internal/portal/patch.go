package portal

import (
	"fmt"
	"slices"

	"spforest/amoebot"
)

// PatchSpec describes one structure mutation to the portal layer: the index
// remapping from the old to the new structure and the delta's footprint
// (the mutated cells plus their closed neighborhoods, amoebot.Footprint).
// One spec serves all three axes of an Engine.Apply.
//
// The footprint is the locality boundary: a cell outside it keeps its
// occupancy and its entire neighborhood, so run maximality is preserved
// verbatim for such cells.
type PatchSpec struct {
	// Region is the new structure's whole region.
	Region *amoebot.Region
	// Remap maps old node index -> new node index (-1 for removed cells);
	// it is increasing on the surviving cells (amoebot.ApplyRemap).
	Remap []int32
	// FootOld / FootNew are the footprint cells present in the old / new
	// structure, as node indices of the respective structure.
	FootOld []int32
	FootNew []int32
}

// Patch derives the new structure's portal decomposition from the
// receiver's by repairing only the delta's dirty zone. Portals with no
// node in the footprint survive exactly — their (remapped) node sets are
// still maximal runs, because both run membership and maximality depend
// only on their cells' unchanged neighborhoods — so their CSR spans are
// copied through the remap. Every other new run consists entirely of
// dirty-zone nodes (footprint cells plus survivors of
// footprint-intersecting portals) and is walked from its start, which the
// zone's list of run starts holds. The same pass writes the ID column.
// The crossing tree edges are derived from the new representatives, as
// Compute derives them (link). The x decomposition is read off the rows
// instead: an x-portal is a row's gap-free run, so Compute's pass over
// the rows writes no more than a patch would copy.
//
// New portal ids are assigned in ascending run-start order, exactly as
// Compute assigns them, so the result is deep-equal to
// Compute(sp.Region, p.Axis). Both decompositions must cover whole
// structures (the engine's use).
func (p *Portals) Patch(sp *PatchSpec) *Portals {
	if len(p.nodes) != len(sp.Remap) {
		panic("portal: Patch requires a whole-structure decomposition")
	}
	s := sp.Region.Structure()
	n2 := s.N()
	if p.Axis == amoebot.AxisX {
		return compute(sp.Region, p.Axis, make([]int32, n2))
	}
	pos, neg := p.Axis.Positive(), p.Axis.Negative()

	// Dirty old portals, ascending: any portal owning a footprint cell.
	dirty := make([]int32, 0, len(sp.FootOld))
	for _, i := range sp.FootOld {
		dirty = append(dirty, p.ID[i])
	}
	slices.Sort(dirty)
	dirty = slices.Compact(dirty)
	// The starts of the dirty zone's runs, ascending. Every node of every
	// non-surviving new run lies in the zone: a node outside the footprint
	// whose old portal were clean would make its maximal run that clean
	// portal's image.
	var starts []int32
	addStart := func(w int32) {
		if s.Neighbor(w, neg) == amoebot.None {
			starts = append(starts, w)
		}
	}
	for _, w := range sp.FootNew {
		addStart(w)
	}
	for _, id := range dirty {
		for _, g := range p.NodesOf(id) {
			if w := sp.Remap[g]; w >= 0 {
				addStart(w)
			}
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)

	// Merge surviving portals (ascending old id — their new starts ascend
	// with them, the remap being increasing) with the dirty-zone runs
	// (ascending start): ids come out in ascending new-run-start order,
	// matching Compute's assignment.
	ids, nodes := make([]int32, n2), make([]int32, 0, n2)
	off := make([]int32, 1, p.Len()+len(starts)+1)
	old, di, si := int32(0), 0, 0
	for {
		for di < len(dirty) && dirty[di] == old {
			old, di = old+1, di+1
		}
		id := int32(len(off) - 1)
		if old < int32(p.Len()) && (si == len(starts) || sp.Remap[p.Rep(old)] < starts[si]) {
			for _, g := range p.NodesOf(old) {
				w := sp.Remap[g]
				ids[w] = id
				nodes = append(nodes, w)
			}
			old++
		} else if si < len(starts) {
			for v := starts[si]; v != amoebot.None; v = s.Neighbor(v, pos) {
				ids[v] = id
				nodes = append(nodes, v)
			}
			si++
		} else {
			break
		}
		off = append(off, int32(len(nodes)))
	}
	if len(nodes) != n2 {
		panic(fmt.Sprintf("portal: Patch covered %d of %d nodes", len(nodes), n2))
	}
	np := &Portals{Axis: p.Axis, Region: sp.Region, ID: ids, nodes: nodes, off: off}
	np.link()
	return np
}
