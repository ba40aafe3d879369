// Package treeprim implements the tree primitives of paper §3.2–3.4 on
// reconfigurable circuits: root-and-prune, election, Q-centroids,
// augmentation sets, and centroid decomposition. The primitives operate on
// abstract trees (ett.Tree) and are not limited to the geometric amoebot
// model, exactly as the paper notes; the portal package lifts them to
// implicit portal trees.
package treeprim

import (
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
// prefix-sum difference of each incident edge against zero. By Lemma 17
// that difference is sub(u) = |Q ∩ subtree(u)| towards u's parent and
// −sub(c) towards a child c, so the primitive evaluates the subtree counts
// with one traversal and charges the execution with ett.Charge — the same
// rounds and beeps as the streamed run (DESIGN.md §2).
func RootAndPrune(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *RootPruneResult {
	res, _, _ := rootAndPrune(clock, tree, root, inQ)
	return res
}

// rootAndPrune is RootAndPrune also returning the traversal it evaluated
// (parentOrd and sub of subtreeCounts; nil on a single-node tree). The
// result is read off the subtree counts: u survives iff sub(u) > 0 (its
// parent-edge difference is nonzero, or it is the root and |Q| > 0), its
// parent is the neighbor with positive difference (Corollary 18), and
// deg_Q(u) counts its nonzero differences.
func rootAndPrune(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) (res *RootPruneResult, parentOrd, sub []int32) {
	res = newRootPruneResult(tree.Len())
	if tree.Len() == 1 {
		// Degenerate single-node tree: everything is local knowledge.
		res.InVQ[0] = inQ[0]
		if inQ[0] {
			res.QSize = 1
		}
		return res, nil, nil
	}
	parentOrd, sub = subtreeCounts(tree, root, inQ)
	ett.Charge(clock, int(sub[root]))
	res.QSize = uint64(sub[root])
	for u, ns := range tree.Neighbors {
		if sub[u] == 0 {
			continue
		}
		res.InVQ[u] = true
		if j := parentOrd[u]; j >= 0 {
			res.Parent[u] = ns[j]
			res.ParentOrd[u] = int(j)
			res.DegQ[u]++
		}
		for j, v := range ns {
			if int32(j) != parentOrd[u] && sub[v] > 0 {
				res.DegQ[u]++
			}
		}
	}
	return res, parentOrd, sub
}

func newRootPruneResult(n int) *RootPruneResult {
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
	return res
}

// subtreeCounts roots the tree at root with one breadth-first traversal and
// returns, per node u, the ordinal of u's parent among its neighbors (-1 at
// the root) and sub(u) = |Q ∩ subtree(u)|. It panics unless the adjacency
// is a tree: a repeated visit, an asymmetric edge or an unreached node
// would otherwise miscount.
func subtreeCounts(tree *ett.Tree, root int32, inQ []bool) (parentOrd, sub []int32) {
	n := tree.Len()
	parentOrd = make([]int32, n)
	sub = make([]int32, n)
	for i := range parentOrd {
		parentOrd[i] = -2 // unvisited
	}
	parentOrd[root] = -1
	order := make([]int32, 1, n)
	order[0] = root
	for i := 0; i < len(order); i++ {
		u := order[i]
		for j, v := range tree.Neighbors[u] {
			if int32(j) == parentOrd[u] {
				continue
			}
			if parentOrd[v] != -2 {
				panic("treeprim: adjacency is not a tree (cycle)")
			}
			parentOrd[v] = ordinalOf(tree.Neighbors[v], u)
			order = append(order, v)
		}
	}
	if len(order) != n {
		panic("treeprim: adjacency is not a tree (disconnected)")
	}
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		if inQ[u] {
			sub[u]++
		}
		if j := parentOrd[u]; j >= 0 {
			sub[tree.Neighbors[u][j]] += sub[u]
		}
	}
	return parentOrd, sub
}

// ordinalOf returns the position of v in ns, panicking if it is absent.
func ordinalOf(ns []int32, v int32) int32 {
	for j, w := range ns {
		if w == v {
			return int32(j)
		}
	}
	panic("treeprim: adjacency is not symmetric")
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
// machines. The components of u are subtree(c) for each child c and the
// rest of the tree through its parent, of sizes sub(c) and |Q| − sub(u),
// evaluated from the subtree counts of the root-and-prune traversal.
func Centroids(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) *CentroidResult {
	res := &CentroidResult{IsCentroid: make([]bool, tree.Len())}
	var parentOrd, sub []int32
	res.RP, parentOrd, sub = rootAndPrune(clock, tree, root, inQ)
	if tree.Len() == 1 {
		res.IsCentroid[0] = inQ[0]
		return res
	}
	m := sub[root]
	ChargeBroadcastETT(clock, int(m))
	for u, ns := range tree.Neighbors {
		if !inQ[u] {
			continue // only candidates evaluate sizes
		}
		ok := m-sub[u] <= m/2 // the parent's component; empty at the root
		for j, v := range ns {
			if int32(j) != parentOrd[u] && sub[v] > m/2 {
				ok = false
			}
		}
		res.IsCentroid[u] = ok
	}
	return res
}

// ChargeBroadcastETT charges the second ETT of the centroid primitives
// (Lemmas 23 and 36) over m marked instances: the ETT itself plus, per
// iteration, one round and one beep in which the root broadcasts the
// current bit of |Q|.
func ChargeBroadcastETT(clock *sim.Clock, m int) {
	iters := ett.Charge(clock, m)
	clock.Tick(int64(iters))
	clock.AddBeeps(int64(iters))
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
