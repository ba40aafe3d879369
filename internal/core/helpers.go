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
	"spforest/internal/ett"
	"spforest/internal/pasc"
	"spforest/internal/sim"
)

// forestChildren is the children adjacency of a forest over a node set in
// CSR form: the children of nodes[k] are kids[off[k]:off[k+1]], ascending.
// All three columns draw from the arena, so a prune costs work in its
// region, not n slice headers plus one slice per parent.
type forestChildren struct {
	slot *dense.Index // node -> k
	off  []int32
	kids []int32
}

// newForestChildren builds the children of f's members among nodes, which
// must be ascending and hold every member and every member's parent. The
// counting sort places children in ascending order — the order
// Forest.Children lists them in. Release with release.
func newForestChildren(f *amoebot.Forest, nodes []int32, ar *dense.Arena) *forestChildren {
	fc := &forestChildren{slot: ar.Index(f.Structure().N()), off: ar.Int32s(len(nodes) + 1)}
	for k, u := range nodes {
		fc.slot.Set(u, int32(k))
	}
	for _, u := range nodes {
		if p := f.Parent(u); p != amoebot.None {
			k, ok := fc.slot.Get(p)
			if !ok {
				panic(fmt.Sprintf("core: parent %d of %d outside the node set", p, u))
			}
			fc.off[k+1]++
		}
	}
	for k := range nodes {
		fc.off[k+1] += fc.off[k]
	}
	fc.kids = ar.Int32s(int(fc.off[len(nodes)]))
	next := ar.Int32s(len(nodes))
	defer ar.PutInt32s(next)
	copy(next, fc.off)
	for _, u := range nodes {
		if p := f.Parent(u); p != amoebot.None {
			k := fc.slot.At(p)
			fc.kids[next[k]] = u
			next[k]++
		}
	}
	return fc
}

// of returns u's children, ascending.
func (fc *forestChildren) of(u int32) []int32 {
	k := fc.slot.At(u)
	return fc.kids[fc.off[k]:fc.off[k+1]]
}

func (fc *forestChildren) release(ar *dense.Arena) {
	ar.PutIndex(fc.slot)
	ar.PutInt32s(fc.off)
	ar.PutInt32s(fc.kids)
}

// forestDepths returns the depth of every member of f (its parent hops to
// its root) plus one, indexed by node, with 0 for non-members; members
// lists f's members. One walk up the parent links resolves each member
// once, memoized. The depths are what the tree-distance PASC on f
// (Corollary 5) streams, dist(S, ·): every non-root member is a participant
// with its depth as value, and forestDepths adds each to vals. Panics when
// a member's parent is no member or a parent cycle makes f no forest.
// Release the column with ar.PutInt32s.
func forestDepths(f *amoebot.Forest, members []int32, ar *dense.Arena, vals *pasc.Tally) []int32 {
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

// pruneToDestinations applies the final root-and-prune of §4/§5.4.4: every
// tree of f is pruned to the subtrees containing destinations (sources
// always stay as roots). Connected components of chosen-parent graphs that
// contain no source receive no signal and prune themselves entirely.
// Rounds: the primitive runs on all trees in parallel. nodes is the
// region f lives on (ascending, holding every member of f). The survivors
// are written into out, which must hold no member in the region, and out
// is returned.
func pruneToDestinations(env *Env, clock *sim.Clock, f *amoebot.Forest, nodes, sources, dests []int32, out *amoebot.Forest) *amoebot.Forest {
	s := f.Structure()
	ar := env.Arena()
	isDest := ar.BitSet(s.N())
	defer ar.PutBitSet(isDest)
	for _, d := range dests {
		isDest.Add(d)
	}
	children := newForestChildren(f, nodes, ar) // shared read-only by the per-tree walks
	defer children.release(ar)
	branches := make([]*sim.Clock, len(sources))
	// The trees are vertex-disjoint, so the per-tree prunes run on worker
	// goroutines (each writes only its own tree's entries of out).
	env.Exec().For(len(sources), func(si int) {
		src := sources[si]
		if f.Member(src) {
			branches[si] = clock.Fork()
			pruneTree(branches[si], f, children, src, isDest, out, ar)
		}
		out.SetRoot(src) // sources always remain roots of (possibly empty) trees
	})
	live := branches[:0]
	for _, b := range branches {
		if b != nil {
			live = append(live, b)
		}
	}
	clock.JoinMax(live...)
	// One synchronization round: components without a source hear silence
	// and drop out.
	clock.Tick(1)
	return out
}

// pruneTree runs the root-and-prune primitive (Lemma 20) on the tree of f
// containing src, rooted at src, and writes the surviving non-source
// members to out with their parents in f. It is evaluated in closed form
// (DESIGN.md §2): one walk over the parent/child links from src lists the
// members, each after the member it was reached from, so one pass in
// reverse walk order accumulates every subtree's destination count, and a
// member survives iff its count is positive — the sign test the ETT's
// streamed prefix differences feed. The ETT itself is charged with
// ett.Charge (a one-member tree decides locally). Panics unless the
// component is a tree.
func pruneTree(clock *sim.Clock, f *amoebot.Forest, children *forestChildren, src int32, isDest *dense.BitSet, out *amoebot.Forest, ar *dense.Arena) {
	seen := ar.BitSet(f.Structure().N())
	defer ar.PutBitSet(seen)
	walk := []int32{src} // members in walk order
	from := []int32{-1}  // walk index each member was reached from
	links := 0
	reach := func(v int32, i int) {
		if !seen.Has(v) {
			seen.Add(v)
			walk = append(walk, v)
			from = append(from, int32(i))
		}
	}
	seen.Add(src)
	for i := 0; i < len(walk); i++ {
		u := walk[i]
		if p := f.Parent(u); p != amoebot.None {
			links++
			reach(p, i)
		}
		for _, c := range children.of(u) {
			reach(c, i)
		}
	}
	if links != len(walk)-1 {
		panic(fmt.Sprintf("core: component of source %d has %d members but %d parent links, not a tree", src, len(walk), links))
	}
	if len(walk) == 1 {
		return
	}
	sub := make([]int32, len(walk))
	for i := len(walk) - 1; i >= 0; i-- {
		if isDest.Has(walk[i]) {
			sub[i]++
		}
		if i > 0 {
			sub[from[i]] += sub[i]
		}
	}
	ett.Charge(clock, int(sub[0]))
	for i, g := range walk[1:] {
		if sub[i+1] > 0 {
			out.SetParent(g, f.Parent(g))
		}
	}
}

// discoverChildren charges the round in which every amoebot that chose a
// parent beeps on the shared edge so parents learn their children (needed
// before any tree-structured circuit can be built on a chosen-parent
// forest). nodes is the region f lives on.
func discoverChildren(clock *sim.Clock, f *amoebot.Forest, nodes []int32) {
	clock.Tick(1)
	n := int64(0)
	for _, u := range nodes {
		if f.Parent(u) != amoebot.None {
			n++
		}
	}
	clock.AddBeeps(n)
}
