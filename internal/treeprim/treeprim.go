// Package treeprim implements the tree primitives of paper §3.2–3.4 on
// reconfigurable circuits: root-and-prune, election, Q-centroids,
// augmentation sets, and centroid decomposition. The primitives operate on
// abstract trees (ett.Tree) and are not limited to the geometric amoebot
// model, exactly as the paper notes; the portal package lifts them to
// implicit portal trees.
package treeprim

import (
	"spforest/internal/bitstream"
	"spforest/internal/ett"
	"spforest/internal/sim"
)

// RootPruneResult is the outcome of the root-and-prune primitive (§3.2):
// the tree is rooted at r and every subtree without a node of Q is pruned.
type RootPruneResult struct {
	// InVQ marks the surviving nodes: those whose subtree w.r.t. the root
	// contains a node of Q (the root survives iff Q is non-empty).
	InVQ []bool
	// Parent is each surviving non-root node's parent; -1 otherwise.
	Parent []int32
	// ParentOrd is the neighbor ordinal of Parent, -1 otherwise.
	ParentOrd []int
	// DegQ is each surviving node's degree within the pruned tree.
	DegQ []int
	// QSize is |Q| as streamed to the root (simulator-visible; the
	// constant-memory amoebots only ever observe it bit by bit).
	QSize uint64
}

// RootAndPrune runs the root-and-prune primitive on the tree rooted at
// root for the set Q (Lemma 20): one ETT execution with weight function
// w_Q; every node compares, with O(1)-state streaming subtractors, the
// prefix-sum difference of each incident edge against zero.
func RootAndPrune(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *RootPruneResult {
	n := tree.Len()
	res := &RootPruneResult{
		InVQ:      make([]bool, n),
		Parent:    make([]int32, n),
		ParentOrd: make([]int, n),
		DegQ:      make([]int, n),
	}
	for i := range res.Parent {
		res.Parent[i] = -1
		res.ParentOrd[i] = -1
	}
	if n == 1 {
		// Degenerate single-node tree: everything is local knowledge.
		res.InVQ[0] = inQ[0]
		if inQ[0] {
			res.QSize = 1
		}
		return res
	}
	tour := ett.BuildTour(tree, root)
	run := ett.NewRun(tour, inQ)
	subs := make([][]bitstream.Subtractor, n)
	for u := 0; u < n; u++ {
		subs[u] = make([]bitstream.Subtractor, tree.Degree(int32(u)))
	}
	var total bitstream.Accumulator
	for !run.Done() {
		run.Step(clock)
		for u := int32(0); u < int32(n); u++ {
			for j := range subs[u] {
				out, in := run.EdgeBits(u, j)
				subs[u][j].Feed(out, in)
			}
		}
		total.Feed(run.TotalBit())
	}
	res.QSize = total.Value()
	for u := int32(0); u < int32(n); u++ {
		if u == root {
			res.InVQ[u] = res.QSize > 0
		}
		for j := range subs[u] {
			if subs[u][j].NonZero() {
				res.InVQ[u] = true
				res.DegQ[u]++
			}
			if u != root && subs[u][j].Sign() == bitstream.Greater {
				// Corollary 18: the neighbor with positive difference is
				// the parent.
				res.Parent[u] = tree.Neighbors[u][j]
				res.ParentOrd[u] = j
			}
		}
	}
	return res
}

// Augmentation returns the augmentation set A_Q = {u ∈ V_Q : deg_Q(u) ≥ 3}
// (Lemma 26); together with Q it guarantees the existence of centroids
// (Lemma 27). The information is local to the root-and-prune result.
func Augmentation(rp *RootPruneResult) []bool {
	a := make([]bool, len(rp.InVQ))
	for u := range a {
		a[u] = rp.InVQ[u] && rp.DegQ[u] >= 3
	}
	return a
}

// Elect elects a single node of Q (Lemma 21, §3.3) on the Euler tour of
// the tree: the tour is split at the marked edges (the first instance of
// each Q node) into circuit subpaths, the root beeps into the first
// subpath, and the owner of the first marked edge hears it and is elected.
// One round, one beep (none on a single-node tour, where the root decides
// locally). Returns -1 if Q is empty (silence on every marked instance).
//
// A beep's outcome depends only on circuit connectivity: the root's subpath
// runs from instance 0 to the first marked edge, so the elected node is the
// first tour instance whose node is in Q, found in one scan of the tour.
// The circuit construction itself is the oracle of the package tests.
func Elect(clock *sim.Clock, tour *ett.Tour, inQ []bool) int32 {
	clock.Tick(1)
	if tour.Edges() > 0 {
		clock.AddBeeps(1)
	}
	for i := int32(0); i < int32(tour.Len()); i++ {
		if u := tour.Node(i); inQ[u] {
			return u
		}
	}
	return -1
}

// CentroidResult is the outcome of the Q-centroid primitive.
type CentroidResult struct {
	// IsCentroid marks the Q-centroids: nodes u ∈ Q whose removal splits
	// the tree into components with at most |Q|/2 nodes of Q each.
	IsCentroid []bool
	// RP is the root-and-prune execution performed as the first step.
	RP *RootPruneResult
}

// Centroids computes the Q-centroid(s) of the tree (Lemma 23): a
// root-and-prune execution to learn parents, then a second ETT during which
// the root broadcasts |Q| bit-interleaved (3 rounds per iteration); every
// candidate compares each component size against |Q|/2 with O(1)-state
// machines.
func Centroids(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *CentroidResult {
	n := tree.Len()
	res := &CentroidResult{IsCentroid: make([]bool, n)}
	res.RP = RootAndPrune(clock, tree, root, inQ)
	if n == 1 {
		res.IsCentroid[0] = inQ[0]
		return res
	}
	tour := ett.BuildTour(tree, root)
	run := ett.NewRun(tour, inQ)
	// Per node and neighbor: the prefix difference (for children, reversed)
	// chained into a size stream, compared against |Q|/2.
	type edgeState struct {
		diff bitstream.Subtractor // prefix difference along the edge
		size bitstream.Subtractor // |Q| − diff (parent edges only)
		half bitstream.HalfComparator
	}
	states := make([][]edgeState, n)
	for u := 0; u < n; u++ {
		states[u] = make([]edgeState, tree.Degree(int32(u)))
	}
	for !run.Done() {
		run.Step(clock)
		clock.Tick(1) // the root broadcasts the current bit of |Q| (Lemma 23)
		clock.AddBeeps(1)
		qBit := run.TotalBit()
		for u := int32(0); u < int32(n); u++ {
			if !inQ[u] {
				continue // only candidates evaluate sizes
			}
			for j := range states[u] {
				st := &states[u][j]
				out, in := run.EdgeBits(u, j)
				var sizeBit uint8
				if j == res.RP.ParentOrd[u] {
					// Component of the parent: |Q| − (prefix(u,p) − prefix(p,u)).
					dBit := st.diff.Feed(out, in)
					sizeBit = st.size.Feed(qBit, dBit)
				} else {
					// Component of a child: prefix(v,u) − prefix(u,v).
					sizeBit = st.diff.Feed(in, out)
				}
				st.half.Feed(sizeBit, qBit)
			}
		}
	}
	for u := int32(0); u < int32(n); u++ {
		if !inQ[u] {
			continue
		}
		ok := true
		for j := range states[u] {
			if states[u][j].half.Result() == bitstream.Greater {
				ok = false
				break
			}
		}
		res.IsCentroid[u] = ok
	}
	return res
}

// DecompResult is the outcome of the centroid decomposition (§3.4).
type DecompResult struct {
	// Depth is each node's depth in the centroid decomposition tree DT(T),
	// or -1 for nodes outside Q'.
	Depth []int
	// ParentCentroid is the centroid of the calling recursion (-1 for the
	// root of DT(T) and for nodes outside Q').
	ParentCentroid []int32
	// Height is the number of recursion levels executed.
	Height int
}

// Decompose computes a Q'-centroid decomposition tree (Lemma 31): per
// recursion level, all current regions in parallel elect one of their
// centroids and split at it; a global beep by the still-unelected nodes of
// Q' decides termination. Q' must be an augmented set (Q ∪ A_Q) for
// centroids to exist in every recursion (Corollary 28).
func Decompose(clock *sim.Clock, tree *ett.Tree, root int32, inQPrime []bool) *DecompResult {
	n := tree.Len()
	res := &DecompResult{
		Depth:          make([]int, n),
		ParentCentroid: make([]int32, n),
	}
	for i := range res.Depth {
		res.Depth[i] = -1
		res.ParentCentroid[i] = -1
	}
	type region struct {
		nodes  []int32 // global node ids
		root   int32   // global id of R_Z
		caller int32   // centroid of the calling recursion, -1 at top
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	active := []region{{nodes: all, root: root, caller: -1}}
	remaining := 0
	for _, q := range inQPrime {
		if q {
			remaining++
		}
	}
	for depth := 0; remaining > 0 && len(active) > 0; depth++ {
		res.Height = depth + 1
		branches := make([]*sim.Clock, 0, len(active))
		var next []region
		for _, reg := range active {
			branch := clock.Fork()
			branches = append(branches, branch)
			sub, toLocal := subTree(tree, reg.nodes)
			subQ := make([]bool, len(reg.nodes))
			hasQ := false
			for li, g := range reg.nodes {
				if inQPrime[g] {
					subQ[li] = true
					hasQ = true
				}
			}
			if !hasQ {
				continue // defensive; regions without Q' are not recursed into
			}
			cent := Centroids(branch, sub, toLocal[reg.root], subQ)
			elected := Elect(branch, ett.BuildTour(sub, toLocal[reg.root]), cent.IsCentroid)
			if elected < 0 {
				// Q' was not properly augmented; Corollary 28 rules this
				// out for Q' = Q ∪ A_Q.
				panic("treeprim: region without a centroid; was Q' augmented?")
			}
			g := reg.nodes[elected]
			res.Depth[g] = depth
			res.ParentCentroid[g] = reg.caller
			remaining--
			// Split at the elected centroid: each neighbor's component
			// forms a circuit, Q' members beep (+1 round, charged below).
			for _, comp := range splitAt(sub, elected) {
				compHasQ := false
				gnodes := make([]int32, len(comp.nodes))
				for i, li := range comp.nodes {
					gnodes[i] = reg.nodes[li]
					if subQ[li] {
						compHasQ = true
					}
				}
				if compHasQ {
					next = append(next, region{nodes: gnodes, root: reg.nodes[comp.root], caller: g})
				}
			}
			branch.Tick(1) // subtree circuits + Q' beep deciding recursion
		}
		clock.JoinMax(branches...)
		clock.Tick(1) // global termination beep by unelected Q' nodes
		clock.AddBeeps(int64(remaining))
		active = next
	}
	return res
}

// subTree extracts the induced subtree on the given (connected) node set,
// preserving each node's cyclic neighbor order. Returns the subtree and the
// global→local index map.
func subTree(tree *ett.Tree, nodes []int32) (*ett.Tree, map[int32]int32) {
	toLocal := make(map[int32]int32, len(nodes))
	for li, g := range nodes {
		toLocal[g] = int32(li)
	}
	nbrs := make([][]int32, len(nodes))
	for li, g := range nodes {
		for _, v := range tree.Neighbors[g] {
			if lv, ok := toLocal[v]; ok {
				nbrs[li] = append(nbrs[li], lv)
			}
		}
	}
	return &ett.Tree{Neighbors: nbrs}, toLocal
}

type component struct {
	nodes []int32 // local ids within the split tree
	root  int32   // the neighbor of the removed centroid (local id)
}

// splitAt returns the connected components of tree minus node c, each
// rooted at its neighbor of c.
func splitAt(tree *ett.Tree, c int32) []component {
	var comps []component
	seen := make([]bool, tree.Len())
	seen[c] = true
	for _, start := range tree.Neighbors[c] {
		if seen[start] {
			continue
		}
		comp := component{root: start}
		stack := []int32{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.nodes = append(comp.nodes, u)
			for _, v := range tree.Neighbors[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
