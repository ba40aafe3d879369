package portal

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/sim"
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

// RootPrune roots the view's portal tree at rootPortal and prunes subtrees
// without portals of Q (Lemma 33): one ETT over the implicit portal tree
// marking the representatives Q̂, sign tests at the connector amoebots, one
// beep round on the per-portal circuits (membership in V_Q, Fig. 4a) and
// one on the per-directed-edge circuits (parent identification, Fig. 4b).
// The connectors' prefix differences are portal-subtree counts (see
// rootPortalTree), evaluated with one traversal of the portal tree; the
// ETT is charged with sim.Clock.ChargeETT (DESIGN.md §2).
func RootPrune(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) *RootPruneResult {
	if v.singleAmoebot() {
		res := newRootPruneResult(v.P.Len())
		res.InVQ[rootPortal] = inQ[rootPortal]
		if inQ[rootPortal] {
			res.QSize = 1
		}
		return res
	}
	t := rootPortalTree(v, rootPortal, inQ)
	defer t.release()
	return t.rootPrune(clock)
}

func newRootPruneResult(n int) *RootPruneResult {
	res := &RootPruneResult{InVQ: make([]bool, n), Parent: make([]int32, n)}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	return res
}

// portalTree is a view's portal tree rooted at a portal, with the Q count
// of every portal subtree. parent and sub are indexed by portal id and
// meaningful for the view's portals only; order lists those portals
// breadth-first from the root.
type portalTree struct {
	parent, sub []int32
	order       []int32
}

// rootPortalTree roots the view's portal tree — P.Nbr restricted to the
// view, a tree by Lemma 9 — at root with one breadth-first traversal and
// counts sub(P) = |Q ∩ subtree(P)|. Cutting the crossing edge between P
// and its parent splits the implicit tree into the unions of the portals on
// either side, so the prefix difference the connector c_P(parent) streams
// in the ETT (Lemma 32) is sub(P), and the parent's connector towards P
// streams −sub(P). Panics unless the view's portal graph is a tree.
func rootPortalTree(v *View, root int32, inQ []bool) *portalTree {
	n := v.P.Len()
	t := &portalTree{
		parent: dense.Shared.Int32s(n),
		sub:    dense.Shared.Int32s(n),
		order:  make([]int32, 1, len(v.IDs)),
	}
	seen := dense.Shared.BitSet(n)
	defer dense.Shared.PutBitSet(seen)
	t.order[0], t.parent[root] = root, -1
	seen.Add(root)
	for i := 0; i < len(t.order); i++ {
		u := t.order[i]
		for _, w := range v.P.Nbr[u] {
			if w == t.parent[u] || !v.inView[w] {
				continue
			}
			if seen.Has(w) {
				panic("portal: view's portal graph has a cycle")
			}
			seen.Add(w)
			t.parent[w] = u
			t.order = append(t.order, w)
		}
	}
	if len(t.order) != len(v.IDs) {
		panic("portal: view's portal graph is not connected")
	}
	for i := len(t.order) - 1; i >= 0; i-- {
		u := t.order[i]
		if inQ[u] {
			t.sub[u]++
		}
		if i > 0 {
			t.sub[t.parent[u]] += t.sub[u]
		}
	}
	return t
}

// m returns |Q ∩ view|, the number of marked instances of the ETT.
func (t *portalTree) m() int32 { return t.sub[t.order[0]] }

func (t *portalTree) release() {
	dense.Shared.PutInt32s(t.parent)
	dense.Shared.PutInt32s(t.sub)
}

// rootPrune charges Lemma 33's execution and reads its result off the
// subtree counts: P survives iff sub(P) > 0, and a surviving non-root
// portal's parent is its tree parent.
func (t *portalTree) rootPrune(clock *sim.Clock) *RootPruneResult {
	res := newRootPruneResult(len(t.parent))
	res.QSize = uint64(t.m())
	clock.ChargeETT(int(t.m()))
	beeps := int64(0)
	for i, id := range t.order {
		if t.sub[id] == 0 {
			continue
		}
		res.InVQ[id] = true
		if i > 0 {
			res.Parent[id] = t.parent[id]
			// Its connector towards the parent streams sub(P) > 0 (one
			// nonzero beep, one positive beep), the parent's connector
			// towards P streams −sub(P) (one nonzero beep).
			beeps += 3
		}
	}
	// Round 1: per-portal circuits, connectors with nonzero difference beep
	// — V_Q membership. Round 2: per-directed-edge circuits, connectors with
	// positive difference beep — parent identification.
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

// ElectPortal elects one portal of Q (Lemma 35): the election of Lemma 21
// over the view's implicit tree rooted at the root portal's representative,
// with the representatives of the Q portals marked (the set Q̂ of §3.5),
// followed by one beep on the elected portal's circuit so every member
// amoebot learns the outcome. The tour splits at the first instance of each
// marked amoebot, so the root's beep reaches exactly the first marked
// amoebot on the canonical Euler tour; firstOnTour finds it by walking the
// view's portal tree in tour order. Returns -1 when Q ∩ view is empty.
func ElectPortal(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) int32 {
	if v.singleAmoebot() {
		clock.Tick(2)
		if inQ[rootPortal] {
			return rootPortal
		}
		return -1
	}
	clock.Tick(1) // the root beeps on its tour circuit
	clock.AddBeeps(1)
	elected := firstOnTour(v, rootPortal, inQ)
	clock.Tick(1) // the elected representative beeps on its portal circuit
	if elected < 0 {
		return -1
	}
	clock.AddBeeps(1)
	return elected
}

// firstOnTour returns the portal of the first amoebot on the canonical
// Euler tour of the view's implicit tree (ett.BuildTour's rule, from the
// root portal's representative) that represents a Q portal, or -1 if none
// does. It walks the view's portal tree, not its amoebots, so it costs the
// portals it passes.
//
// A slot is an amoebot of a portal and a crossing direction d, written
// rel = (d − Positive) mod 6: side A is rel 1 and 2, side B rel 4 and 5.
// With the portal's amoebots u_0 … u_{m−1} in axis order (u_0 its
// representative), the tour passes the portal's slots in one cycle: side B
// (rel 4, then 5) at u_0, …, u_{m−1}, then side A (rel 1, then 2) at
// u_{m−1}, …, u_0. Between crossing a tree edge at a slot and crossing it
// back, the tour covers the far portal's whole subtree. So the walk enters
// a child portal at the slot of its connector towards the parent, takes the
// child's own children in cycle order from there, and reaches the child's
// representative on entry if that connector is u_0, and otherwise just
// before slot (u_0, rel 1). The root is visited first, at its
// representative, and its cycle starts at the slot of its first tree edge
// counterclockwise from E (rootSlot).
//
// Each crossing edge's slots come from the connector's offset along its
// portal and the tree-edge rule of Definition 12: the edge leaves the
// representative of one end in direction c, or reaches the representative
// of one end in direction c' = c + Positive (see link). One explicit stack
// of portal frames holds the walk: a Line decomposed along y or z is a
// path of single-amoebot portals.
func firstOnTour(v *View, rootPortal int32, inQ []bool) int32 {
	if inQ[rootPortal] {
		return rootPortal // the root is the representative of its portal
	}
	w := tourWalks.Get().(*tourWalk)
	defer tourWalks.Put(w)
	w.frames, w.kids = w.frames[:0], w.kids[:0]
	w.enter(v, rootPortal, -1, rootSlot[v.P.Axis], false)
	for len(w.frames) > 0 {
		f := &w.frames[len(w.frames)-1]
		if f.next == f.rep && inQ[f.id] {
			return f.id
		}
		if f.next == f.end {
			w.frames = w.frames[:len(w.frames)-1]
			if len(w.frames) > 0 {
				w.kids = w.kids[:w.frames[len(w.frames)-1].end]
			}
			continue
		}
		k := w.kids[f.next]
		f.next++
		if k.atRep && inQ[k.id] {
			return k.id
		}
		w.enter(v, k.id, f.id, k.entry, !k.atRep)
	}
	return -1
}

// tourWalk is firstOnTour's scratch: the stack of portal frames from the
// root and, per frame, its children in cycle order.
type tourWalk struct {
	frames []tourFrame
	kids   []tourKid
}

var tourWalks = sync.Pool{New: func() any { return new(tourWalk) }}

// tourFrame is a portal on the walk's path from the root. Its children not
// yet entered are kids[next:end], and the walk reaches its representative
// when next == rep; rep is -1 when it did so on entry (the root, or a
// portal entered at its representative).
type tourFrame struct {
	id             int32
	next, end, rep int32
}

// tourKid is a child portal of a frame. pos is the position of its
// crossing slot on the frame's cycle, counted from the slot the walk
// entered the frame at; entry is the position of its connector towards the
// frame on its own cycle, atRep whether that connector is its
// representative.
type tourKid struct {
	pos, id, entry int32
	atRep          bool
}

// enter pushes the frame of portal id, entered from parent (-1 for the
// root) at cycle position entry; repPending says whether the walk still has
// to reach its representative.
func (w *tourWalk) enter(v *View, id, parent, entry int32, repPending bool) {
	p := v.P
	axis := p.Axis
	g := &tourAxes[axis]
	s := p.Region.Structure()
	m := p.off[id+1] - p.off[id]
	cycle := 4 * m
	rep := s.Coord(p.Rep(id))
	along0, inv0 := axis.Along(rep), axis.Invariant(rep)
	start := int32(len(w.kids))
	nbrOff := p.nbrOff[id]
	for k, nb := range p.Nbr[id] {
		if nb == parent || !v.inView[nb] {
			continue
		}
		a := axis.Along(s.Coord(p.via[nbrOff+int32(k)])) // the connector
		far := s.Coord(p.Rep(nb))
		side := amoebot.SideB
		if axis.Invariant(far)-inv0 == g.invA {
			side = amoebot.SideA
		}
		// The edge leaves the connector in direction c' iff it reaches nb's
		// representative that way (then any offset is possible on this side,
		// and nb's connector is its representative); otherwise it is c from
		// this portal's representative, and lands at an offset of nb.
		prime := axis.Along(far) == a+g.alongC[side]+1
		j := 0
		if !prime {
			j = a + g.alongC[side] - axis.Along(far)
		}
		mn := p.off[nb+1] - p.off[nb]
		w.kids = append(w.kids, tourKid{
			pos:   (slot(m, int32(a-along0), side, prime) - entry + cycle) % cycle,
			id:    nb,
			entry: slot(mn, int32(j), 1-side, !prime),
			atRep: j == 0,
		})
	}
	kids := w.kids[start:]
	slices.SortFunc(kids, func(x, y tourKid) int { return cmp.Compare(x.pos, y.pos) })
	f := tourFrame{id: id, next: start, end: int32(len(w.kids)), rep: -1}
	if repPending {
		// The walk reaches the representative just before slot (u_0, rel 1).
		at := (slot(m, 0, amoebot.SideA, true) - entry + cycle) % cycle
		f.rep = start + int32(len(kids))
		for i, k := range kids {
			if k.pos >= at {
				f.rep = start + int32(i)
				break
			}
		}
	}
	w.frames = append(w.frames, f)
}

// slot returns the position on a portal's cycle of m amoebots of the slot
// at offset i on the side, in direction c' if prime and c otherwise: side B
// (c = rel 4, c' = rel 5) ascends the offsets from 0, side A (c' = rel 1,
// c = rel 2) then descends them to 2m … 4m−1.
func slot(m, i int32, side amoebot.Side, prime bool) int32 {
	var s int32
	if side == amoebot.SideB {
		s = 2 * i
	} else {
		s = 4*m - 2 - 2*i
	}
	if prime == (side == amoebot.SideB) {
		s++
	}
	return s
}

// rootSlot is, per axis, the cycle position of the root's first slot
// counterclockwise from E at its representative: E is rel 0 on x, so the
// tour runs along the portal first and starts at (u_1, rel 4), or at
// (u_0, rel 1) on a one-amoebot portal, both position 2; E is rel 5 on y,
// position 1, and rel 4 on z, position 0.
var rootSlot = [amoebot.NumAxes]int32{2, 1, 0}

// tourAxis is what the walk reads off coordinates along one axis: the
// invariant step of a side-A crossing, and per side the along step of
// direction c (c' = c + Positive steps one further).
type tourAxis struct {
	invA   int
	alongC [amoebot.NumSides]int
}

var tourAxes = func() (t [amoebot.NumAxes]tourAxis) {
	for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
		cA, _ := axis.CrossPair(amoebot.SideA)
		t[axis].invA = axis.Invariant(cA.Delta())
		for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
			c, _ := axis.CrossPair(side)
			t[axis].alongC[side] = axis.Along(c.Delta())
		}
	}
	return t
}()

// CentroidResult is the outcome of the portal Q-centroid primitive.
type CentroidResult struct {
	IsCentroid []bool // per portal id
	RP         *RootPruneResult
}

// Centroids computes the Q-centroid portals of the view (Lemma 36): a
// root-and-prune execution, a second ETT with the root broadcasting |Q|
// bit-interleaved (3 rounds per iteration), streamed component-size
// comparisons at the connector amoebots against |Q|/2, and one "cannot be a
// centroid" beep round on the portal circuits. The component behind each
// connector is a portal subtree, or the rest of the view towards the
// parent, so its size is read off the root-and-prune traversal's counts.
func Centroids(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) *CentroidResult {
	res := &CentroidResult{IsCentroid: make([]bool, v.P.Len())}
	if v.singleAmoebot() {
		res.RP = RootPrune(clock, v, rootPortal, inQ)
		res.IsCentroid[rootPortal] = inQ[rootPortal]
		return res
	}
	t := rootPortalTree(v, rootPortal, inQ)
	defer t.release()
	res.RP = t.rootPrune(clock)
	m := t.m()
	clock.ChargeBroadcastETT(int(m))
	// One beep per (Q portal, view neighbor) connector whose component
	// exceeds ⌊|Q|/2⌋.
	beeps := int64(0)
	for _, p1 := range v.IDs {
		if !inQ[p1] {
			continue
		}
		res.IsCentroid[p1] = true
		for _, p2 := range v.P.Nbr[p1] {
			if !v.inView[p2] {
				continue
			}
			size := t.sub[p2] // a child's subtree
			if p2 == t.parent[p1] {
				size = m - t.sub[p1]
			}
			if size > m/2 {
				res.IsCentroid[p1] = false
				beeps++
			}
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
