// Package verify checks the five properties of (S,D)-shortest-path forests
// (paper §1.3) against the centralized ground truth:
//
//  1. every source roots a tree,
//  2. every leaf is a source or a destination,
//  3. trees are vertex-disjoint,
//  4. every destination belongs to a tree,
//  5. each tree path is a shortest path in G_X and each member's root is a
//     nearest source.
//
// Property 3 holds structurally for parent-pointer forests; the remaining
// properties are checked explicitly. Verification runs within an arbitrary
// region so the intermediate region-relative forests of the
// divide-and-conquer algorithm can be validated too.
package verify

import (
	"fmt"

	"spforest/amoebot"
	"spforest/internal/baseline"
)

// Forest checks that f is an (S,D)-shortest-path forest of the whole
// structure.
func Forest(s *amoebot.Structure, sources, dests []int32, f *amoebot.Forest) error {
	return ForestInRegion(amoebot.WholeRegion(s), sources, dests, f)
}

// ForestInRegion checks that f is an (S,D)-shortest-path forest of the
// given region: membership, parents and distances are all interpreted
// within the region's induced subgraph.
func ForestInRegion(region *amoebot.Region, sources, dests []int32, f *amoebot.Forest) error {
	dist, _ := baseline.ExactExec(nil, region, sources)
	return ForestInRegionWithDist(region, dist, sources, dests, f)
}

// ForestInRegionWithDist is ForestInRegion with the nearest-source
// distances precomputed (baseline.ExactExec's output for the same region and
// sources), so callers that memoize distances skip the BFS.
func ForestInRegionWithDist(region *amoebot.Region, dist []int32, sources, dests []int32, f *amoebot.Forest) error {
	s := region.Structure()
	if f.Structure() != s {
		return fmt.Errorf("verify: forest belongs to a different structure")
	}
	if err := f.Check(); err != nil {
		return fmt.Errorf("verify: structural check: %w", err)
	}
	// One flag column marks the sources and the destinations.
	const isSource, isDest = 1, 2
	flags := make([]uint8, s.N())
	for _, src := range sources {
		if !region.Contains(src) {
			return fmt.Errorf("verify: source %d outside region", src)
		}
		flags[src] |= isSource
	}
	if len(sources) == 0 {
		return fmt.Errorf("verify: no sources")
	}

	// Property 1 + roots ⊆ S: the member roots are exactly the sources.
	for _, src := range sources {
		if !f.Member(src) {
			return fmt.Errorf("verify: source %d is not in the forest (property 1)", src)
		}
		if f.Parent(src) != amoebot.None {
			return fmt.Errorf("verify: source %d has a parent", src)
		}
	}

	children := make([]int32, s.N()) // member child counts
	for i := int32(0); i < int32(s.N()); i++ {
		if !f.Member(i) {
			continue
		}
		if !region.Contains(i) {
			return fmt.Errorf("verify: member %d outside region", i)
		}
		if p := f.Parent(i); p != amoebot.None {
			if !region.Contains(p) {
				return fmt.Errorf("verify: member %d has parent outside region", i)
			}
			children[p]++
		} else if flags[i]&isSource == 0 {
			return fmt.Errorf("verify: root %d is not a source", i)
		}
	}

	// Property 4: destinations covered.
	for _, d := range dests {
		flags[d] |= isDest
		if !f.Member(d) {
			return fmt.Errorf("verify: destination %d not covered (property 4)", d)
		}
	}

	// Property 5: each member's depth equals the nearest-source distance.
	// Together with parent adjacency this pins everything down: the tree
	// path from the root to u has length depth(u), so
	// dist(S,u) ≤ dist(root,u) ≤ depth(u) = dist(S,u) — the path is a
	// shortest path and the own root is a nearest source. Check has ruled
	// out cycles and non-member or non-adjacent parents, so by induction
	// along each root path depth = dist holds everywhere exactly when every
	// root has distance 0 and every other member its parent's distance
	// plus one: one O(n) pass.
	// Property 2: leaves are sources or destinations.
	for i := int32(0); i < int32(s.N()); i++ {
		if !f.Member(i) {
			continue
		}
		want := int32(0)
		if p := f.Parent(i); p != amoebot.None {
			want = dist[p] + 1
		}
		if dist[i] != want {
			return property5(f, dist, i)
		}
		if children[i] == 0 && flags[i] == 0 {
			return fmt.Errorf("verify: leaf %d is neither source nor destination (property 2)", i)
		}
	}
	return nil
}

// property5 reports the property 5 violation that a member u breaking the
// local rule (dist(u) = dist(parent) + 1, or 0 at a root) implies: a node
// on u's root path, u itself or an ancestor, whose depth differs from its
// distance. Depths fall by one per step up the path and the root's
// distance is 0, so the walk finds one.
func property5(f *amoebot.Forest, dist []int32, u int32) error {
	depth := f.Depth(u)
	for int32(depth) == dist[u] {
		u = f.Parent(u)
		depth--
	}
	return fmt.Errorf("verify: node %d has depth %d but dist(S,·)=%d (property 5)", u, depth, dist[u])
}
