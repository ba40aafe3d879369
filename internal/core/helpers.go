// Package core implements the two algorithms of Padalkin & Scheideler
// (PODC 2024) and their subroutines:
//
//   - SPTEnv: the shortest path tree algorithm for a single source
//     (§4, Theorem 39; O(log ℓ) rounds),
//   - LineForestEnv: the line algorithm (§5.1, Lemma 40),
//   - MergeEnv: the forest merging algorithm (§5.2, Lemma 42),
//   - PropagateEnv: the propagation algorithm across a portal (§5.3,
//     Lemma 50),
//   - ForestEnv: the divide-and-conquer shortest path forest algorithm
//     (§5.4, Theorem 56 / Corollary 57; O(log n log² k) rounds),
//   - ForestSequentialEnv: the naive sequential-merge approach the paper
//     mentions as the O(k log n) baseline (§5 introduction).
//
// All algorithms operate on a Region (sub-structure) and account their
// synchronous rounds on a sim.Clock exactly as the paper's lemmas do. Each
// takes an *Env — the execution environment (parallel executor, scratch
// arena, portal memo); a nil Env runs serially.
package core

import (
	"fmt"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/sim"
)

// forestDepths returns the depth of every member of f (its parent hops to
// its root) plus one, indexed by node, with 0 for non-members; members
// lists f's members. One walk up the parent links resolves each member
// once, memoized. The depths are what the tree-distance PASC on f
// (Corollary 5) streams, dist(S, ·): every non-root member is a participant
// with its depth as value, and forestDepths adds each to vals. Panics when
// a member's parent is no member or a parent cycle makes f no forest.
// Release the column with ar.PutInt32s.
func forestDepths(f *amoebot.Forest, members []int32, ar *dense.Arena, vals *sim.Tally) []int32 {
	const onPath = -1
	depth := ar.Int32s(f.Structure().N())
	var path []int32
	for _, g := range members {
		u := g
		for depth[u] == 0 {
			p := f.Parent(u)
			if p == amoebot.None {
				depth[u] = 1
				break
			}
			if !f.Member(p) {
				panic(fmt.Sprintf("core: member %d has parent outside member set", u))
			}
			depth[u] = onPath
			path = append(path, u)
			u = p
		}
		if depth[u] == onPath {
			panic(fmt.Sprintf("core: parent cycle through %d, not a forest", u))
		}
		for i := len(path) - 1; i >= 0; i-- {
			v := path[i]
			depth[v] = depth[f.Parent(v)] + 1
			vals.Add(int(depth[v]) - 1)
		}
		path = path[:0]
	}
	return depth
}

// membersAmong lists f's members among nodes, in nodes' order, on an
// arena column (release it with ar.PutInt32s). When nodes is a region
// holding every member of f, it is f.Members() at the region's cost.
func membersAmong(f *amoebot.Forest, nodes []int32, ar *dense.Arena) []int32 {
	m := ar.Int32s(len(nodes))[:0]
	for _, u := range nodes {
		if f.Member(u) {
			m = append(m, u)
		}
	}
	return m
}

// pruneFates recycles the per-node columns of pruneToDestinations: a prune
// resolves only the members its walks visit, so its column needs no pass
// over n.
var pruneFates = dense.NewColumns(0)

// pruneToDestinations applies the final root-and-prune of §4/§5.4.4: every
// tree of f is pruned to the subtrees containing destinations (sources
// always stay as roots). Connected components of chosen-parent graphs that
// contain no source receive no signal and prune themselves entirely.
// Rounds: the primitive runs on all trees in parallel. f lives on region
// (every member and every member's parent lies in it), and every member
// source must be a root; the prune panics otherwise. The survivors are
// written into out, which must hold no member in the region, and out is
// returned.
//
// It is evaluated in closed form (DESIGN.md §2): a member survives iff its
// subtree holds a destination — the sign test the ETT's streamed prefix
// differences feed — that is, iff it lies on the path from a destination
// up to a source root. One walk up from each distinct member destination,
// stopping at the first member an earlier walk resolved, finds those paths
// and counts each tree's destinations m; a walk that ends at a root other
// than a source, or closes a parent cycle, is dropped. Each source tree
// with more than one member is charged branch.ChargeETT(m) (a one-member
// tree decides locally).
func pruneToDestinations(env *Env, clock *sim.Clock, f *amoebot.Forest, region *amoebot.Region, sources, dests []int32, out *amoebot.Forest) *amoebot.Forest {
	// fate per node: 0 unresolved, dropped, onWalk, or k+1 for a member of
	// the tree of sources[k]. walked lists every node written, sources
	// first.
	const dropped, onWalk = -1, -2
	s := f.Structure()
	fate := pruneFates.Take(s.N())
	var walked []int32
	for k, src := range sources {
		if !f.Member(src) || fate[src] != 0 {
			continue
		}
		if p := f.Parent(src); p != amoebot.None {
			panic(fmt.Sprintf("core: source %d has parent %d, not a root", src, p))
		}
		fate[src] = int32(k) + 1
		walked = append(walked, src)
	}
	nsrc := len(walked)
	hasChild := make([]bool, len(sources))
	for _, u := range region.Nodes() {
		if p := f.Parent(u); p != amoebot.None {
			if !region.Contains(p) {
				panic(fmt.Sprintf("core: parent %d of %d outside the node set", p, u))
			}
			if k := fate[p]; k > 0 {
				hasChild[k-1] = true
			}
		}
	}
	ar := env.Arena()
	counted := ar.BitSet(s.N())
	defer ar.PutBitSet(counted)
	m := make([]int, len(sources))
	for _, d := range dests {
		if !f.Member(d) || counted.Has(d) {
			continue
		}
		counted.Add(d)
		start, u := len(walked), d
		for fate[u] == 0 {
			fate[u] = onWalk
			walked = append(walked, u)
			p := f.Parent(u)
			if p == amoebot.None {
				break
			}
			u = p
		}
		k := fate[u]
		if k == onWalk {
			k = dropped // a root that is no source, or a cycle
		}
		for _, v := range walked[start:] {
			fate[v] = k
		}
		if k > 0 {
			m[k-1]++
		}
	}
	var branches []*sim.Clock
	for _, src := range sources {
		if f.Member(src) {
			if k := fate[src] - 1; hasChild[k] {
				branch := clock.Fork()
				branch.ChargeETT(m[k])
				branches = append(branches, branch)
			}
		}
	}
	clock.JoinMax(branches...)
	// One synchronization round: components without a source hear silence
	// and drop out.
	clock.Tick(1)
	for _, v := range walked[nsrc:] {
		if fate[v] > 0 {
			out.SetParent(v, f.Parent(v))
		}
	}
	for _, src := range sources {
		out.SetRoot(src) // sources always remain roots of (possibly empty) trees
	}
	pruneFates.Put(fate, walked)
	return out
}
