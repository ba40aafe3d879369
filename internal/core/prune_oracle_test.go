package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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

// requirePruneMatchesOracle prunes f, which lives on region, both ways and
// compares the forests, rounds and beeps.
func requirePruneMatchesOracle(t *testing.T, ctx string, f *amoebot.Forest, region *amoebot.Region, sources, dests []int32) {
	t.Helper()
	var got, want sim.Clock
	g := pruneToDestinations(testEnv(), &got, f, region, sources, dests, amoebot.NewForest(f.Structure()))
	w := ettPruneOracle(&want, f, sources, dests)
	if !reflect.DeepEqual(g, w) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
		t.Fatalf("%s: closed-form prune (%d rounds, %d beeps) differs from the ETT oracle (%d rounds, %d beeps)",
			ctx, got.Rounds(), got.Beeps(), want.Rounds(), want.Beeps())
	}
}

// randomDests returns a random nonempty subset of nodes.
func randomDests(rng *rand.Rand, nodes []int32) []int32 {
	density := 1 + rng.Intn(40)
	dests := []int32{nodes[rng.Intn(len(nodes))]}
	for _, u := range nodes {
		if rng.Intn(100) < density {
			dests = append(dests, u)
		}
	}
	return dests
}

// chooseParentsOracle is the parent choice as written before it dropped its
// membership tests: Lemma 38's feasibility rule read literally, with u's
// portal in V_Q on both axes not parallel to the edge (u,v), v's portal its
// parent there, and v a neighbor inside the region.
func chooseParentsOracle(region *amoebot.Region, axes *[amoebot.NumAxes]axisInfo,
	rps *[amoebot.NumAxes]*portal.RootPruneResult, source int32) *amoebot.Forest {
	chosen := amoebot.NewForest(region.Structure())
	chosen.SetRoot(source)
	for _, u := range region.Nodes() {
		if u == source {
			continue
		}
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			v := region.Neighbor(u, d)
			if v == amoebot.None {
				continue
			}
			feasible := true
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				if axis == d.Axis() {
					continue // same portal on the edge's own axis
				}
				pu, pv := axes[axis].ports.ID[u], axes[axis].ports.ID[v]
				if !rps[axis].InVQ[pu] || rps[axis].Parent[pu] != pv {
					feasible = false
					break
				}
			}
			if feasible {
				chosen.SetParent(u, v)
				break
			}
		}
	}
	return chosen
}

// portalRootPrunes runs the SPT's three portal root-and-prunes of the
// region for one source and destination set, on a throwaway clock.
func portalRootPrunes(axes *[amoebot.NumAxes]axisInfo, source int32, dests []int32) [amoebot.NumAxes]*portal.RootPruneResult {
	var rps [amoebot.NumAxes]*portal.RootPruneResult
	for axis := range axes {
		inQ := make([]bool, axes[axis].ports.Len())
		for _, d := range dests {
			inQ[axes[axis].ports.ID[d]] = true
		}
		var clock sim.Clock
		rps[axis] = portal.RootPrune(&clock, axes[axis].view, axes[axis].ports.ID[source], inQ)
	}
	return rps
}

// TestChooseParentsMatchesFeasibilityOracle compares the parent choice
// without membership tests with Lemma 38's rule read literally, on random
// blobs and on hop balls inside them (fresh decompositions whose regions
// have structure neighbors outside), for random sources and destination
// sets: the forests must be equal, and the returned count must be the
// number of region amoebots the rule gives a parent.
func TestChooseParentsMatchesFeasibilityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	env := testEnv()
	for trial := 0; trial < 40; trial++ {
		s := shapes.RandomBlob(rng, 2+rng.Intn(300))
		ball := ballRegion(s, int32(rng.Intn(s.N())), 1+rng.Intn(6))
		for _, region := range []*amoebot.Region{amoebot.WholeRegion(s), ball} {
			nodes := region.Nodes()
			axes := env.allAxes(region)
			for q := 0; q < 3; q++ {
				source := nodes[rng.Intn(len(nodes))]
				rps := portalRootPrunes(&axes, source, randomDests(rng, nodes))
				got, n := chooseParents(env, region, &axes, &rps, source)
				want := chooseParentsOracle(region, &axes, &rps, source)
				wantN := int64(0)
				for _, u := range nodes {
					if want.Parent(u) != amoebot.None {
						wantN++
					}
				}
				if !reflect.DeepEqual(got, want) || n != wantN {
					t.Fatalf("trial %d (%d of %d amoebots), source %d: parent choice (%d parents) differs from Lemma 38's rule (%d parents)",
						trial, region.Len(), s.N(), source, n, wantN)
				}
				got.ReleaseScratch(nodes)
			}
			for _, a := range axes {
				if a.fresh {
					a.ports.Release()
				}
			}
		}
	}
}

// TestPruneMatchesETTOracle compares the closed-form final prune with the
// streamed ETT path it replaces on chosen-parent SPT forests (including
// components that are not the source's), on the whole structure and on a
// hop ball inside it, and on merged multi-source forests extended by a
// single-member source component and a non-member source, then by the
// cases no caller produces: an extra source tree without destinations
// (charged m = 0), a source-free root and a parent cycle holding
// destinations (both dropped), duplicated sources and destinations, and a
// source that is a destination.
func TestPruneMatchesETTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	env := testEnv()
	for trial := 0; trial < 30; trial++ {
		s := shapes.RandomBlob(rng, 2+rng.Intn(200))
		whole := amoebot.WholeRegion(s)
		nodes := whole.Nodes()

		// Chosen-parent forests of SPT queries, before their prune.
		for _, region := range []*amoebot.Region{whole, ballRegion(s, int32(rng.Intn(s.N())), 1+rng.Intn(6))} {
			rnodes := region.Nodes()
			source := rnodes[rng.Intn(len(rnodes))]
			dests := randomDests(rng, rnodes)
			axes := env.allAxes(region)
			rps := portalRootPrunes(&axes, source, dests)
			chosen, _ := chooseParents(env, region, &axes, &rps, source)
			requirePruneMatchesOracle(t, fmt.Sprintf("chosen-parent forest on %d of %d amoebots", region.Len(), s.N()),
				chosen, region, []int32{source}, dests)
		}

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
		var leaves, inner []int32
		for _, u := range nodes {
			if merged.Parent(u) != amoebot.None {
				if len(children[u]) == 0 {
					leaves = append(leaves, u)
				} else {
					inner = append(inner, u)
				}
			}
		}
		if len(leaves) >= 2 {
			rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
			merged.SetRoot(leaves[0])
			merged.Remove(leaves[1])
			sources = append(sources, leaves[0], leaves[1])
		}
		requirePruneMatchesOracle(t, "merged forest", merged, whole, sources, randomDests(rng, nodes))

		if len(inner) < 3 {
			continue
		}
		rng.Shuffle(len(inner), func(i, j int) { inner[i], inner[j] = inner[j], inner[i] })
		extra, stray, cyc := inner[0], inner[1], inner[2]
		merged.SetRoot(extra)
		merged.SetRoot(stray)
		if kids := merged.Children()[cyc]; len(kids) > 0 {
			merged.SetParent(cyc, kids[0])
		}
		var dests []int32
		for _, d := range randomDests(rng, nodes) {
			if merged.RootOf(d) != extra {
				dests = append(dests, d)
			}
		}
		if merged.RootOf(cyc) != extra {
			dests = append(dests, cyc)
		}
		dests = append(dests, stray)
		dests = append(dests, dests[0], sources[0])
		sources = append(sources, extra, sources[0])
		requirePruneMatchesOracle(t, "edited merged forest", merged, whole, sources, dests)
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
	pruneToDestinations(nil, &clock, f, amoebot.WholeRegion(s), []int32{1}, []int32{2}, amoebot.NewForest(s))
}

// TestPruneOracleRejectsMalformedForests checks that the closed-form prune
// panics on a member source that has a parent and on a member whose parent
// lies outside the region.
func TestPruneOracleRejectsMalformedForests(t *testing.T) {
	s := shapes.Line(5)
	f := amoebot.NewForest(s)
	f.SetRoot(0)
	f.SetParent(1, 0)
	f.SetParent(2, 1)
	for _, tc := range []struct {
		name, panic string
		region      *amoebot.Region
		sources     []int32
	}{
		{"source with a parent", "not a root", amoebot.WholeRegion(s), []int32{1}},
		{"parent outside the region", "outside the node set", amoebot.NewRegion(s, []int32{1, 2}), []int32{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.panic) {
					t.Fatalf("prune panicked with %v, want a panic naming %q", r, tc.panic)
				}
			}()
			var clock sim.Clock
			pruneToDestinations(nil, &clock, f, tc.region, tc.sources, []int32{2}, amoebot.NewForest(s))
		})
	}
}
