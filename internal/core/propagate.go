package core

import (
	"fmt"
	"slices"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/sim"
)

// PropagateEnv extends an S-shortest path forest f covering A ∪ P to the
// whole region A ∪ P ∪ B (§5.3, Lemma 50). P is an x-portal of the region
// given by its nodes; B is the union of the region's components on the
// given side of P (SideA = north). S ⊆ A ∪ P must hold, which is the case
// whenever f is an (S∩(A∪P))-forest of A∪P.
//
// Phase 1 handles the visibility region B' = B ∩ vis(P): amoebots visible
// along exactly one of the y/z-portals through P adopt the neighbor towards
// their projection (Lemma 47); amoebots visible along both compare
// dist(S, proj_y) against dist(S, proj_z), streamed by a tree-PASC on f and
// forwarded along the portal circuits (Lemma 46). Phase 2 roots every
// invisible component Z at the amoebot s_Z closest to P and runs the
// shortest path tree algorithm inside Z (Lemmas 48/49).
//
// Runs in O(log n) rounds. An empty forest propagates to an empty forest.
// pnodes must be a contiguous run of one row, ascending in x.
//
// The tree-PASC of phase 1 is evaluated in closed form (DESIGN.md §2): one
// memoized walk up f's parent links yields every member's depth, a
// both-visible amoebot compares its projections' depths, and
// sim.Clock.ChargePASC bills the one-lane run. The phase-2 invisible
// components — disjoint sub-regions by construction — run on worker
// goroutines with their branch clocks joined in component order. Panics
// unless f is a forest over its members. B is found by a search over the
// components of region \ P (splitSides), which panics when one of them
// touches P from both sides or not at all.
func PropagateEnv(env *Env, clock *sim.Clock, region *amoebot.Region, pnodes []int32, f *amoebot.Forest, into amoebot.Side) *amoebot.Forest {
	if len(pnodes) == 0 {
		panic("core: empty portal")
	}
	out := f.Clone()
	if f.Size() == 0 {
		return out
	}
	ar := env.Arena()
	inP := portalRow(region.Structure(), pnodes, ar)
	defer ar.PutBitSet(inP)
	b := amoebot.NewRegion(region.Structure(), splitSides(ar, region, inP)[into])
	propagate(env, clock, region, b, pnodes, region.Nodes(), out, into)
	return out
}

// portalRow returns the set of the portal's nodes, checking that they form
// a contiguous run of one row (an x-portal), ascending in x: propagation
// finds a projection at its x offset into the run. Release the set with
// ar.PutBitSet.
func portalRow(s *amoebot.Structure, pnodes []int32, ar *dense.Arena) *dense.BitSet {
	inP := ar.BitSet(s.N())
	c0 := s.Coord(pnodes[0])
	for i, p := range pnodes {
		c := s.Coord(p)
		if c.Z != c0.Z {
			panic("core: portal nodes not on one row")
		}
		if c.X != c0.X+i {
			panic("core: portal nodes not a contiguous run ascending in x")
		}
		inP.Add(p)
	}
	return inP
}

// propagate is PropagateEnv extending f in place into B = body \ P, where
// body lies on the given side of P and may hold part of P. Its callers
// know that side without a search: a base region records it, and phase 2
// of a merge joins one region per side. region holds B ∪ P and answers the
// neighbor reads towards P; fNodes holds every member of f. pnodes is a
// contiguous run of one row, ascending in x, as portalRow checks.
func propagate(env *Env, clock *sim.Clock, region, body *amoebot.Region, pnodes, fNodes []int32, f *amoebot.Forest, into amoebot.Side) {
	nb := body.Len()
	for _, p := range pnodes {
		if body.Contains(p) {
			nb--
		}
	}
	if nb == 0 {
		return
	}
	ar := env.Arena()
	members := membersAmong(f, fNodes, ar)
	defer ar.PutInt32s(members)
	if len(members) == 0 {
		return
	}
	s := region.Structure()
	zP := s.Coord(pnodes[0]).Z
	x0 := s.Coord(pnodes[0]).X
	towardY, towardZ := towardPortal(into)
	onP := func(u int32) bool {
		c := s.Coord(u)
		return c.Z == zP && c.X >= x0 && c.X < x0+len(pnodes)
	}

	// Phase 1: visibility via the y-/z-portals of P ∪ B (one beep round).
	visY, visZ := visibility(ar, body, pnodes, into)
	defer ar.PutBitSet(visY)
	defer ar.PutBitSet(visZ)
	clock.Tick(1)
	clock.AddBeeps(2 * int64(len(pnodes)))

	// Both-visible amoebots compare the streamed distances of their two
	// projections onto P (tree-PASC on f; the P-amoebots forward their bits
	// on the portal circuits in the same cadence): n_y if
	// dist(S, proj_y) ≤ dist(S, proj_z), else n_z (Lemma 46). The
	// projections sit at x = −Y_u − z_P (along y) and x = X_u (along z) of
	// the run. The depths are taken before phase 1 writes into f.
	// No amoebot of P is visible, so the loops over body need not skip P.
	var depth []int32
	if slices.ContainsFunc(body.Nodes(), func(u int32) bool { return visY.Has(u) && visZ.Has(u) }) {
		var vals sim.Tally
		depth = forestDepths(f, members, ar, &vals)
		defer ar.PutInt32s(depth)
		clock.ChargePASC(1, vals)
	}
	projDepth := func(x int) int32 {
		if k := x - x0; k >= 0 && k < len(pnodes) {
			if p := pnodes[k]; s.Coord(p).X == x && depth[p] != 0 {
				return depth[p]
			}
		}
		panic("core: projection of a visible amoebot missed the portal")
	}
	for _, u := range body.Nodes() {
		switch vy, vz := visY.Has(u), visZ.Has(u); {
		case vy && vz:
			if cu := s.Coord(u); projDepth(-cu.Y-zP) <= projDepth(cu.X) {
				f.SetParent(u, mustNeighbor(region, u, towardY))
			} else {
				f.SetParent(u, mustNeighbor(region, u, towardZ))
			}
		case vy:
			f.SetParent(u, mustNeighbor(region, u, towardY))
		case vz:
			f.SetParent(u, mustNeighbor(region, u, towardZ))
		}
	}
	visible := visY // B': visible along either axis
	visible.Or(visZ)

	// Phase 2: invisible components. Each component Z elects s_Z (the
	// amoebot adjacent to B' closest to P), adopts a nearest-P neighbor in
	// B' as its parent and runs the SPT algorithm inside Z (in parallel
	// over all components; two rounds for the component circuits/election).
	var invisible []int32
	for _, u := range body.Nodes() {
		if !visible.Has(u) && !onP(u) {
			invisible = append(invisible, u)
		}
	}
	if len(invisible) > 0 {
		clock.Tick(2)
		comps := amoebot.NewRegion(s, invisible).Components()
		// The components are vertex-disjoint sub-regions of B \ B', where f
		// has no member yet, so their SPTs write into f on worker goroutines
		// (each its own component's entries), rooted at s_Z until s_Z takes
		// its parent in B'; the branch clocks join in component order.
		branches := make([]*sim.Clock, len(comps))
		env.Exec().For(len(comps), func(ci int) {
			z := comps[ci]
			branch := clock.Fork()
			branches[ci] = branch
			sz, parent := electComponentRoot(region, z, visible, zP)
			if z.Len() > 1 {
				sptMany(env, []*sim.Clock{branch}, z, []int32{sz}, z.Nodes(), []*amoebot.Forest{f})
				for _, u := range z.Nodes() {
					if u != sz && f.Parent(u) == amoebot.None {
						panic(fmt.Sprintf("core: phase-2 SPT left node %d unparented", u))
					}
				}
			}
			f.SetParent(sz, parent)
		})
		clock.JoinMax(branches...)
	}
}

// towardPortal returns the directions from B towards P along the y- and
// z-axes, for B on the given side of the x-portal P.
func towardPortal(into amoebot.Side) (towardY, towardZ amoebot.Direction) {
	if into == amoebot.SideA { // B north of P: move south
		return amoebot.DirSW, amoebot.DirSE
	}
	return amoebot.DirNE, amoebot.DirNW
}

// visibility returns the amoebots of B = body \ P (on the given side of
// the x-portal P) that see P along the y-axis and along the z-axis: those
// whose y- (z-) portal of P ∪ B contains an amoebot of P (Lemma 47). An
// axis line crosses P's row once, so that portal holds a P amoebot exactly
// when walking from the P amoebot away from P along the axis stays inside
// B up to the amoebot; a walk away from P never re-enters P's row, so it
// tests membership in body. The walks cost O(|P| + |B|); portal
// decompositions of P ∪ B would cost the whole structure. Release both
// sets with ar.PutBitSet.
func visibility(ar *dense.Arena, body *amoebot.Region, pnodes []int32, into amoebot.Side) (visY, visZ *dense.BitSet) {
	s := body.Structure()
	towardY, towardZ := towardPortal(into)
	visY, visZ = ar.BitSet(s.N()), ar.BitSet(s.N())
	for _, p := range pnodes {
		for v := s.Neighbor(p, towardY.Opposite()); v != amoebot.None && body.Contains(v); v = s.Neighbor(v, towardY.Opposite()) {
			visY.Add(v)
		}
		for v := s.Neighbor(p, towardZ.Opposite()); v != amoebot.None && body.Contains(v); v = s.Neighbor(v, towardZ.Opposite()) {
			visZ.Add(v)
		}
	}
	return visY, visZ
}

// splitSides returns the nodes of region \ P on each side of the x-portal
// P, from one walk over the components of region \ P (in its fixed walk
// order; propagation treats B as a set). Every component touches P from
// exactly one side (the portal graph is a tree); a component touching from
// the other side belongs to A. Only PropagateEnv, whose callers pass a
// region with both sides, searches for the sides; the forest algorithm
// knows them from its split.
func splitSides(ar *dense.Arena, region *amoebot.Region, inP *dense.BitSet) [amoebot.NumSides][]int32 {
	seen := ar.BitSet(region.Structure().N())
	defer ar.PutBitSet(seen)
	var sides [amoebot.NumSides][]int32
	var comp, stack []int32
	for _, start := range region.Nodes() {
		if inP.Has(start) || seen.Has(start) {
			continue
		}
		side, found := amoebot.Side(0), false
		comp = comp[:0]
		seen.Add(start)
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				v := region.Neighbor(u, d)
				switch {
				case v == amoebot.None:
				case inP.Has(v):
					if d.Axis() != amoebot.AxisX {
						// u lies on the side the edge (v, u) points to.
						ds, _ := amoebot.AxisX.SideOf(d.Opposite())
						if found && ds != side {
							panic("core: component touches the portal from both sides")
						}
						side, found = ds, true
					}
				case !seen.Has(v):
					seen.Add(v)
					stack = append(stack, v)
				}
			}
		}
		if !found {
			panic("core: component not adjacent to the portal")
		}
		sides[side] = append(sides[side], comp...)
	}
	return sides
}

func mustNeighbor(region *amoebot.Region, u int32, d amoebot.Direction) int32 {
	v := region.Neighbor(u, d)
	if v == amoebot.None {
		panic(fmt.Sprintf("core: expected neighbor of %d in direction %v", u, d))
	}
	return v
}

// electComponentRoot picks s_Z — the component node adjacent to B' closest
// to P's row (ties towards smaller X) — and its parent: the adjacent
// B'-node closest to P's row.
func electComponentRoot(region *amoebot.Region, z *amoebot.Region, visible *dense.BitSet, zP int) (sz, parent int32) {
	s := region.Structure()
	absDelta := func(u int32) int {
		d := s.Coord(u).Z - zP
		if d < 0 {
			return -d
		}
		return d
	}
	sz = amoebot.None
	for _, u := range z.Nodes() {
		adjacent := false
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v := region.Neighbor(u, d); v != amoebot.None && visible.Has(v) {
				adjacent = true
				break
			}
		}
		if !adjacent {
			continue
		}
		if sz == amoebot.None || absDelta(u) < absDelta(sz) ||
			(absDelta(u) == absDelta(sz) && s.Coord(u).X < s.Coord(sz).X) {
			sz = u
		}
	}
	if sz == amoebot.None {
		panic("core: invisible component not adjacent to the visibility region")
	}
	parent = amoebot.None
	for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
		v := region.Neighbor(sz, d)
		if v == amoebot.None || !visible.Has(v) {
			continue
		}
		if parent == amoebot.None || absDelta(v) < absDelta(parent) ||
			(absDelta(v) == absDelta(parent) && s.Coord(v).X < s.Coord(parent).X) {
			parent = v
		}
	}
	return sz, parent
}
