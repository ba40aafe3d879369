package portal

import (
	"math/bits"

	"spforest/internal/bitstream"
	"spforest/internal/dense"
	"spforest/internal/ett"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
)

// RootPruneResult is the outcome of the portal root-and-prune primitive
// (§3.5, Lemma 33). All slices are indexed by global portal id; entries of
// portals outside the executing view are zero values.
type RootPruneResult struct {
	// InVQ marks portals whose subtree w.r.t. the root portal contains a
	// portal of Q.
	InVQ []bool
	// Parent is each surviving portal's parent portal (-1 for the root and
	// pruned portals). Every amoebot of a portal learns which of its
	// neighbors lie in the parent portal via the directed-edge circuits of
	// Fig. 4b; in the simulator that knowledge is derived from Parent and
	// Portals.ID.
	Parent []int32
	// QSize is |Q| (observed bit by bit at the root's representative).
	QSize uint64
}

// hatQ returns the local-node mask marking the representatives of the
// view's Q-portals (the set Q̂ of §3.5).
func hatQ(v *View, inQ []bool) []bool {
	mask := make([]bool, len(v.nodes))
	for _, id := range v.IDs {
		if inQ[id] {
			mask[v.Local(v.P.Rep(id))] = true
		}
	}
	return mask
}

// RootPrune roots the view's portal tree at rootPortal and prunes subtrees
// without portals of Q (Lemma 33): one ETT over the implicit portal tree
// marking the representatives Q̂, sign tests at the connector amoebots, one
// beep round on the per-portal circuits (membership in V_Q, Fig. 4a) and
// one on the per-directed-edge circuits (parent identification, Fig. 4b).
func RootPrune(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) *RootPruneResult {
	res := &RootPruneResult{
		InVQ:   make([]bool, v.P.Len()),
		Parent: make([]int32, v.P.Len()),
	}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	if len(v.nodes) == 1 {
		res.InVQ[rootPortal] = inQ[rootPortal]
		if inQ[rootPortal] {
			res.QSize = 1
		}
		return res
	}
	tour := v.TourAt(v.Local(v.P.Rep(rootPortal)))
	run := ett.NewRun(tour, hatQ(v, inQ))
	// One streaming subtractor per directed crossing edge, operated by the
	// connector amoebot (Lemma 32: the implicit-tree prefix difference
	// equals the portal-graph prefix difference). The edge table itself is
	// frozen per view (crossings); only the subtractor state is per call.
	ct := v.crossings()
	subs := make([]bitstream.Subtractor, len(ct.from))
	var total bitstream.Accumulator
	for !run.Done() {
		run.Step(clock)
		for i := range subs {
			out, in := run.EdgeBits(ct.local[i], int(ct.ord[i]))
			subs[i].Feed(out, in)
		}
		total.Feed(run.TotalBit())
	}
	res.QSize = total.Value()
	res.InVQ[rootPortal] = res.QSize > 0
	beeps := int64(0)
	for i := range subs {
		if subs[i].NonZero() {
			res.InVQ[ct.from[i]] = true
			beeps++
		}
		if subs[i].Sign() == bitstream.Greater && ct.from[i] != rootPortal {
			res.Parent[ct.from[i]] = ct.to[i]
			beeps++
		}
	}
	// Round 1: per-portal circuits, connectors with nonzero difference beep
	// (plus the root's representative if |Q| > 0) — V_Q membership.
	// Round 2: per-directed-edge circuits, connectors with positive
	// difference beep — parent identification.
	clock.Tick(2)
	clock.AddBeeps(beeps)
	return res
}

// DegQ returns each view portal's degree within the pruned portal tree
// (the information the augmentation-set computation aggregates per portal).
func DegQ(v *View, rp *RootPruneResult) []int {
	deg := make([]int, v.P.Len())
	for _, p1 := range v.IDs {
		if !rp.InVQ[p1] {
			continue
		}
		for _, p2 := range v.P.Nbr[p1] {
			if !v.inView[p2] {
				continue
			}
			// diff(p1,p2) ≠ 0 iff the edge survives pruning: towards the
			// parent iff p1 survives, towards a child iff the child does.
			if p2 == rp.Parent[p1] || (rp.Parent[p2] == p1 && rp.InVQ[p2]) {
				deg[p1]++
			}
		}
	}
	return deg
}

// Augment computes the augmentation set A_Q = {P ∈ V_Q : deg_Q(P) ≥ 3}
// (Lemma 34): every portal counts its surviving connector amoebots with a
// prefix-sum PASC along its own chain (an amoebot connecting two surviving
// edges simulates two chain slots), then announces deg ≥ 3 on the portal
// circuit. Rounds: 2(⌊log₂ max deg_Q⌋+1) for the joint PASC plus one beep.
func Augment(clock *sim.Clock, v *View, rp *RootPruneResult) []bool {
	deg := DegQ(v, rp)
	aq := make([]bool, v.P.Len())
	maxDeg := 0
	beeps := int64(0)
	for _, id := range v.IDs {
		if deg[id] > maxDeg {
			maxDeg = deg[id]
		}
		if rp.InVQ[id] && deg[id] >= 3 {
			aq[id] = true
			beeps++
		}
	}
	iters := 1
	if maxDeg >= 1 {
		iters = bits.Len(uint(maxDeg))
	}
	clock.Tick(int64(2*iters) + 1)
	clock.AddBeeps(beeps)
	return aq
}

// ElectPortal elects one portal of Q (Lemma 35): the simplified-ETT
// election over the implicit tree with Q̂ marks, followed by one beep on the
// elected portal's circuit so every member amoebot learns the outcome.
// Returns -1 when Q ∩ view is empty.
func ElectPortal(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) int32 {
	if len(v.nodes) == 1 {
		clock.Tick(2)
		if inQ[rootPortal] {
			return rootPortal
		}
		return -1
	}
	// The election scans the view's memoized tour at the root portal's
	// representative, usually the one RootPrune or Centroids just built.
	elected := treeprim.Elect(clock, v.TourAt(v.Local(v.P.Rep(rootPortal))), hatQ(v, inQ))
	clock.Tick(1) // the elected representative beeps on its portal circuit
	if elected < 0 {
		return -1
	}
	clock.AddBeeps(1)
	return v.P.ID[v.Global(elected)]
}

// CentroidResult is the outcome of the portal Q-centroid primitive.
type CentroidResult struct {
	IsCentroid []bool // per portal id
	RP         *RootPruneResult
}

// Centroids computes the Q-centroid portals of the view (Lemma 36): a
// root-and-prune execution, a second ETT with the root broadcasting |Q|
// bit-interleaved (3 rounds per iteration), streamed component-size
// comparisons at the connector amoebots against |Q|/2, and one "cannot be a
// centroid" beep round on the portal circuits.
func Centroids(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) *CentroidResult {
	res := &CentroidResult{IsCentroid: make([]bool, v.P.Len())}
	res.RP = RootPrune(clock, v, rootPortal, inQ)
	if len(v.nodes) == 1 {
		res.IsCentroid[rootPortal] = inQ[rootPortal]
		return res
	}
	// Shares the root-and-prune execution's memoized tour (TourAt): the
	// second ETT of Lemma 36 runs over the same canonical tour.
	tour := v.TourAt(v.Local(v.P.Rep(rootPortal)))
	run := ett.NewRun(tour, hatQ(v, inQ))
	type crossing struct {
		from, to int32
		local    int32
		ord      int
		diff     bitstream.Subtractor
		size     bitstream.Subtractor
		half     bitstream.HalfComparator
	}
	// Rows of the frozen table filtered to Q-portal tails (only Q-portals
	// evaluate sizes); the filter preserves the table's row order, so the
	// streamed comparisons match the unfrozen iteration exactly.
	ct := v.crossings()
	var crossings []crossing
	for i := range ct.from {
		if !inQ[ct.from[i]] {
			continue
		}
		crossings = append(crossings, crossing{
			from: ct.from[i], to: ct.to[i], local: ct.local[i], ord: int(ct.ord[i]),
		})
	}
	for !run.Done() {
		run.Step(clock)
		clock.Tick(1) // |Q| bit broadcast (Lemma 36)
		clock.AddBeeps(1)
		qBit := run.TotalBit()
		for i := range crossings {
			c := &crossings[i]
			out, in := run.EdgeBits(c.local, c.ord)
			var sizeBit uint8
			if c.to == res.RP.Parent[c.from] {
				dBit := c.diff.Feed(out, in)
				sizeBit = c.size.Feed(qBit, dBit)
			} else {
				sizeBit = c.diff.Feed(in, out)
			}
			c.half.Feed(sizeBit, qBit)
		}
	}
	for _, id := range v.IDs {
		res.IsCentroid[id] = inQ[id]
	}
	beeps := int64(0)
	for i := range crossings {
		c := &crossings[i]
		if c.half.Result() == bitstream.Greater {
			res.IsCentroid[c.from] = false
			beeps++
		}
	}
	clock.Tick(1) // "cannot be a centroid" beep on the portal circuits
	clock.AddBeeps(beeps)
	return res
}

// DecompResult is the outcome of the portal centroid decomposition.
type DecompResult struct {
	// Depth is each portal's depth in the decomposition tree (-1 outside Q').
	Depth []int
	// ParentCentroid is the centroid portal of the calling recursion.
	ParentCentroid []int32
	// Height is the number of recursion levels executed.
	Height int
}

// Decompose computes a Q'-centroid decomposition tree of the view's portal
// tree (Lemma 37): per level, every active portal subtree elects one of its
// centroid portals in parallel and splits at it; per subtree one beep
// assigns the new root portal and one beep checks for remaining Q' portals;
// a global beep decides termination. Q' must be augmented (Q ∪ A_Q).
func Decompose(clock *sim.Clock, v *View, rootPortal int32, inQPrime []bool) *DecompResult {
	res := &DecompResult{
		Depth:          make([]int, v.P.Len()),
		ParentCentroid: make([]int32, v.P.Len()),
	}
	for i := range res.Depth {
		res.Depth[i] = -1
		res.ParentCentroid[i] = -1
	}
	type task struct {
		ids    []int32
		root   int32
		caller int32
	}
	remaining := 0
	for _, id := range v.IDs {
		if inQPrime[id] {
			remaining++
		}
	}
	active := []task{{ids: v.IDs, root: rootPortal, caller: -1}}
	for depth := 0; remaining > 0 && len(active) > 0; depth++ {
		res.Height = depth + 1
		branches := make([]*sim.Clock, 0, len(active))
		var next []task
		for _, tk := range active {
			branch := clock.Fork()
			branches = append(branches, branch)
			sub := v.P.SubView(tk.ids)
			cents := Centroids(branch, sub, tk.root, inQPrime)
			elected := ElectPortal(branch, sub, tk.root, cents.IsCentroid)
			if elected < 0 {
				panic("portal: subtree without a centroid; was Q' augmented?")
			}
			res.Depth[elected] = depth
			res.ParentCentroid[elected] = tk.caller
			remaining--
			branch.Tick(2) // assign new root portals; per-subtree Q' beep
			for _, comp := range splitPortalTree(sub, elected) {
				has := false
				for _, id := range comp.ids {
					if inQPrime[id] {
						has = true
						break
					}
				}
				if has {
					next = append(next, task{ids: comp.ids, root: comp.root, caller: elected})
				}
			}
		}
		clock.JoinMax(branches...)
		clock.Tick(1) // global termination beep
		clock.AddBeeps(int64(remaining))
		active = next
	}
	return res
}

type portalComponent struct {
	ids  []int32
	root int32
}

// splitPortalTree returns the portal-level components of the view minus the
// given portal, each rooted at its neighbor of the removed portal.
func splitPortalTree(v *View, removed int32) []portalComponent {
	seen := dense.Shared.BitSet(v.P.Len())
	defer dense.Shared.PutBitSet(seen)
	seen.Add(removed)
	var comps []portalComponent
	for _, start := range v.P.Nbr[removed] {
		if !v.inView[start] || seen.Has(start) {
			continue
		}
		comp := portalComponent{root: start}
		stack := []int32{start}
		seen.Add(start)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.ids = append(comp.ids, u)
			for _, w := range v.P.Nbr[u] {
				if v.inView[w] && !seen.Has(w) {
					seen.Add(w)
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
