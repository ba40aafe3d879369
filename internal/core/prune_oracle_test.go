package core

import (
	"math/rand"
	"reflect"
	"testing"

	"spforest/amoebot"
	"spforest/internal/bitstream"
	"spforest/internal/ett"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// ettPruneOracle is the final prune as executed before its closed form: per
// source, the component's ett.Tree over the parent/child links in
// counterclockwise neighbor order, and Lemma 20's ETT run bit by bit on it.
func ettPruneOracle(clock *sim.Clock, f *amoebot.Forest, sources, dests []int32) *amoebot.Forest {
	s := f.Structure()
	isDest := make([]bool, s.N())
	for _, d := range dests {
		isDest[d] = true
	}
	children := f.Children()
	out := amoebot.NewForest(s)
	var branches []*sim.Clock
	for _, src := range sources {
		if f.Member(src) {
			members := []int32{src}
			seen := map[int32]bool{src: true}
			for i := 0; i < len(members); i++ {
				u := members[i]
				for _, v := range append([]int32{f.Parent(u)}, children[u]...) {
					if v != amoebot.None && !seen[v] {
						seen[v] = true
						members = append(members, v)
					}
				}
			}
			tree, local := forestTree(f, members)
			inQ := make([]bool, len(members))
			for li, g := range members {
				inQ[li] = isDest[g]
			}
			branch := clock.Fork()
			branches = append(branches, branch)
			inVQ := ettInVQ(branch, tree, local[src], inQ)
			for li, g := range members {
				if inVQ[li] && g != src {
					out.SetParent(g, f.Parent(g))
				}
			}
		}
		out.SetRoot(src)
	}
	clock.JoinMax(branches...)
	clock.Tick(1)
	return out
}

// forestTree builds the ett.Tree over a forest component's members with the
// grid's counterclockwise neighbor order; MustTree rejects non-trees.
func forestTree(f *amoebot.Forest, members []int32) (*ett.Tree, map[int32]int32) {
	s := f.Structure()
	local := make(map[int32]int32, len(members))
	for li, g := range members {
		local[g] = int32(li)
	}
	nbrs := make([][]int32, len(members))
	for li, g := range members {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			v := s.Neighbor(g, d)
			if lv, ok := local[v]; ok && v != amoebot.None && (f.Parent(g) == v || f.Parent(v) == g) {
				nbrs[li] = append(nbrs[li], lv)
			}
		}
	}
	return ett.MustTree(nbrs), local
}

// ettInVQ streams Lemma 20's ETT and returns V_Q: the root iff |Q| > 0,
// every node with a nonzero prefix difference on some incident edge.
func ettInVQ(clock *sim.Clock, tree *ett.Tree, root int32, inQ []bool) []bool {
	n := tree.Len()
	inVQ := make([]bool, n)
	if n == 1 {
		inVQ[0] = inQ[0]
		return inVQ
	}
	run := ett.NewRun(ett.BuildTour(tree, root), inQ)
	subs := make([][]bitstream.Subtractor, n)
	for u := range subs {
		subs[u] = make([]bitstream.Subtractor, tree.Degree(int32(u)))
	}
	var total bitstream.Accumulator
	for !run.Done() {
		run.Step(clock)
		for u := range subs {
			for j := range subs[u] {
				subs[u][j].Feed(run.EdgeBits(int32(u), j))
			}
		}
		total.Feed(run.TotalBit())
	}
	inVQ[root] = total.Value() > 0
	for u := range subs {
		for j := range subs[u] {
			if subs[u][j].NonZero() {
				inVQ[u] = true
			}
		}
	}
	return inVQ
}

// requirePruneMatchesOracle prunes f both ways and compares the forests,
// rounds and beeps.
func requirePruneMatchesOracle(t *testing.T, ctx string, f *amoebot.Forest, nodes, sources, dests []int32) {
	t.Helper()
	var got, want sim.Clock
	g := pruneToDestinations(testEnv(), &got, f, nodes, sources, dests, amoebot.NewForest(f.Structure()))
	w := ettPruneOracle(&want, f, sources, dests)
	if !reflect.DeepEqual(g, w) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
		t.Fatalf("%s: closed-form prune (%d rounds, %d beeps) differs from the ETT oracle (%d rounds, %d beeps)",
			ctx, got.Rounds(), got.Beeps(), want.Rounds(), want.Beeps())
	}
}

// randomDests returns a random nonempty subset of the structure's nodes.
func randomDests(rng *rand.Rand, n int) []int32 {
	density := 1 + rng.Intn(40)
	dests := []int32{int32(rng.Intn(n))}
	for i := 0; i < n; i++ {
		if rng.Intn(100) < density {
			dests = append(dests, int32(i))
		}
	}
	return dests
}

// TestPruneMatchesETTOracle compares the closed-form final prune with the
// streamed ETT path it replaces on chosen-parent SPT forests (including
// components that are not the source's) and on merged multi-source forests
// extended by a single-member source component and a non-member source.
func TestPruneMatchesETTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	env := testEnv()
	for trial := 0; trial < 30; trial++ {
		s := shapes.RandomBlob(rng, 2+rng.Intn(200))
		region := amoebot.WholeRegion(s)
		nodes := region.Nodes()

		// Chosen-parent forest of an SPT query, before its prune.
		source := int32(rng.Intn(s.N()))
		dests := randomDests(rng, s.N())
		axes := env.allAxes(region)
		var rps [amoebot.NumAxes]*portal.RootPruneResult
		for axis := range axes {
			inQ := make([]bool, axes[axis].ports.Len())
			for _, d := range dests {
				inQ[axes[axis].ports.ID[d]] = true
			}
			var clock sim.Clock
			rps[axis] = portal.RootPrune(&clock, axes[axis].view, axes[axis].ports.ID[source], inQ)
		}
		chosen := chooseParents(env, region, &axes, &rps, source)
		requirePruneMatchesOracle(t, "chosen-parent forest", chosen, nodes, []int32{source}, dests)

		// Merged forest of up to four full SPTs.
		k := 1 + rng.Intn(min(4, s.N()))
		sources := []int32{int32(rng.Intn(s.N()))}
		merged := buildSPT(t, s, sources[0])
		for len(sources) < k {
			src := int32(rng.Intn(s.N()))
			if merged.Parent(src) == amoebot.None {
				continue // already a source
			}
			var clock sim.Clock
			merged = MergeEnv(env, &clock, merged, buildSPT(t, s, src))
			sources = append(sources, src)
		}
		// A leaf turned into a single-member source tree, another leaf
		// removed and kept as a non-member source.
		children := merged.Children()
		var leaves []int32
		for _, u := range nodes {
			if merged.Parent(u) != amoebot.None && len(children[u]) == 0 {
				leaves = append(leaves, u)
			}
		}
		if len(leaves) >= 2 {
			rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
			merged.SetRoot(leaves[0])
			merged.Remove(leaves[1])
			sources = append(sources, leaves[0], leaves[1])
		}
		requirePruneMatchesOracle(t, "merged forest", merged, nodes, sources, randomDests(rng, s.N()))
	}
}

// TestPruneOracleRejectsCycle checks that the closed-form prune panics on
// a source component that is not a tree.
func TestPruneOracleRejectsCycle(t *testing.T) {
	s := shapes.Line(5)
	f := amoebot.NewForest(s)
	f.SetRoot(0)
	f.SetParent(1, 2)
	f.SetParent(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("prune accepted a forest with a cycle")
		}
	}()
	var clock sim.Clock
	pruneToDestinations(nil, &clock, f, amoebot.WholeRegion(s).Nodes(), []int32{1}, []int32{2}, amoebot.NewForest(s))
}
