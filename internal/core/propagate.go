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
// The tree-PASC of phase 1 is evaluated in closed form (DESIGN.md §2): the
// streamed value of a member is its depth, which the forest path carries
// as a label on every member. PropagateEnv takes an arbitrary forest, so
// it first labels f's members in the region with one memoized walk up the
// parent links (forestDepths), then propagates as the forest path does
// (propagate). Panics unless f is a forest over its members. B is found by
// a search over the components of region \ P (splitSides), which panics
// when one of them touches P from both sides or not at all.
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
	label := forestDepths(out, region.Nodes(), ar)
	defer ar.PutInt32s(label)
	propagate(env, clock, region, b, pnodes, region.Nodes(), out, label, into)
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
// of a merge joins one region per side. region holds B ∪ P and answers
// phase 2's neighbor reads; fNodes holds every member of f, and f has no
// member in B. label is f's label column (see forestLabels): propagate
// reads the labels of P's amoebots and labels every amoebot of B as it
// sets its parent. pnodes is a contiguous run of one row, ascending in x,
// as portalRow checks.
//
// Phase 1 is one parent-first pass over B (visiblePass). Its tree-PASC
// tally reads the labels of f's members outside B', which are the members
// before the pass. Phase 2 labels each invisible component's new SPT by a
// walk over only that component's amoebots.
func propagate(env *Env, clock *sim.Clock, region, body *amoebot.Region, pnodes, fNodes []int32, f *amoebot.Forest, label []int32, into amoebot.Side) {
	nb := body.Len()
	for _, p := range pnodes {
		if body.Contains(p) {
			nb--
		}
	}
	if nb == 0 || !slices.ContainsFunc(fNodes, f.Member) {
		return
	}
	ar := env.Arena()
	s := region.Structure()
	zP := s.Coord(pnodes[0]).Z

	// Phase 1: visibility via the y-/z-portals of P ∪ B (one beep round).
	visY, visZ := ar.BitSet(s.N()), ar.BitSet(s.N())
	defer ar.PutBitSet(visY)
	defer ar.PutBitSet(visZ)
	invisible, both := visiblePass(body, pnodes, f, label, into, visY, visZ)
	clock.Tick(1)
	clock.AddBeeps(2 * int64(len(pnodes)))
	visible := visY // B': visible along either axis
	visible.Or(visZ)
	// Both-visible amoebots compared the streamed distances of their two
	// projections onto P (tree-PASC on f; the P-amoebots forward their bits
	// on the portal circuits in the same cadence), which bills the one-lane
	// run over f's members before the pass.
	if both {
		var vals sim.Tally
		for _, u := range fNodes {
			if l := label[u]; l > 1 && !visible.Has(u) {
				vals.Add(int(l) - 1)
			}
		}
		clock.ChargePASC(1, vals)
	}

	// Phase 2: invisible components. Each component Z elects s_Z (the
	// amoebot adjacent to B' closest to P), adopts a nearest-P neighbor in
	// B' as its parent and runs the SPT algorithm inside Z (in parallel
	// over all components; two rounds for the component circuits/election).
	if len(invisible) > 0 {
		clock.Tick(2)
		comps := amoebot.NewRegion(s, invisible).Components()
		// The components are vertex-disjoint sub-regions of B \ B', where f
		// has no member yet, so their SPTs write into f on worker goroutines
		// (each its own component's entries), rooted at s_Z until s_Z takes
		// its parent in B'; the branch clocks join in component order. A
		// component's labels follow from its s_Z's parent, labelled in
		// phase 1.
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
			labelFrom(f, label, z.Nodes())
		})
		clock.JoinMax(branches...)
	}
	labelled("propagate", f, label)
}

// visiblePass is phase 1 of propagation: one pass over B = body \ P that
// finds the amoebots seeing P along the y- and z-axes (visY, visZ: those
// whose y- (z-) portal of P ∪ B contains an amoebot of P, Lemma 47), gives
// each of them its parent and label, and lists the invisible rest. The
// visibility is recursive along each axis: u sees P along y exactly when
// its neighbor towards P along y lies on P's run, or lies in B and sees P
// along y. So the pass runs parent-first, towards P before away from it —
// ascending node order when B lies south of P (a node's row is its major
// key), descending when north — and both = true reports an amoebot seeing
// P along both axes, which compared its projections' labels (Lemma 46).
// visY and visZ must be empty sets over the structure. A parent towards P
// must carry a label, so the pass panics when f leaves an amoebot of P's
// run uncovered that B sees.
func visiblePass(body *amoebot.Region, pnodes []int32, f *amoebot.Forest, label []int32, into amoebot.Side, visY, visZ *dense.BitSet) (invisible []int32, both bool) {
	s := body.Structure()
	zP := s.Coord(pnodes[0]).Z
	x0 := s.Coord(pnodes[0]).X
	onP := func(u int32) bool {
		c := s.Coord(u)
		return c.Z == zP && c.X >= x0 && c.X < x0+len(pnodes)
	}
	// sees reports whether the neighbor v of a B amoebot (towards P along
	// the axis of vis) lies on P's run or sees P along that axis.
	sees := func(v int32, vis *dense.BitSet) bool {
		return v != amoebot.None && (vis.Has(v) || onP(v))
	}
	projLabel := func(x int) int32 {
		if k := x - x0; k >= 0 && k < len(pnodes) && s.Coord(pnodes[k]).X == x {
			if l := label[pnodes[k]]; l != 0 {
				return l
			}
			panic(fmt.Sprintf("core: projection %d has no label: the forest does not cover P", pnodes[k]))
		}
		panic("core: projection of a visible amoebot missed the portal")
	}
	towardY, towardZ := towardPortal(into)
	nodes := body.Nodes()
	for k := range nodes {
		u := nodes[k]
		if into == amoebot.SideA {
			u = nodes[len(nodes)-1-k]
		}
		if onP(u) {
			continue
		}
		ny, nz := s.Neighbor(u, towardY), s.Neighbor(u, towardZ)
		vy, vz := sees(ny, visY), sees(nz, visZ)
		p, d := ny, towardY
		switch {
		case vy && vz:
			// n_y if dist(S, proj_y) ≤ dist(S, proj_z), else n_z; the
			// projections sit at x = −Y_u − z_P (along y) and x = X_u
			// (along z) of the run.
			both = true
			if cu := s.Coord(u); projLabel(-cu.Y-zP) > projLabel(cu.X) {
				p, d = nz, towardZ
			}
			visY.Add(u)
			visZ.Add(u)
		case vy:
			visY.Add(u)
		case vz:
			p, d = nz, towardZ
			visZ.Add(u)
		default:
			invisible = append(invisible, u)
			continue
		}
		if label[p] == 0 {
			panic(fmt.Sprintf("core: %v-neighbor %d of %d has no label: the forest does not cover P", d, p, u))
		}
		f.SetParent(u, p)
		label[u] = label[p] + 1
	}
	return invisible, both
}

// towardPortal returns the directions from B towards P along the y- and
// z-axes, for B on the given side of the x-portal P.
func towardPortal(into amoebot.Side) (towardY, towardZ amoebot.Direction) {
	if into == amoebot.SideA { // B north of P: move south
		return amoebot.DirSW, amoebot.DirSE
	}
	return amoebot.DirNE, amoebot.DirNW
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
