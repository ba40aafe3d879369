// Package baseline provides the comparison algorithms of the evaluation:
//
//   - ExactExec: a centralized multi-source BFS used as ground truth by the
//     verifier (not round-accounted; this is the reference solver, not a
//     distributed algorithm).
//   - BFSForestExec: the distributed breadth-first wavefront in the plain
//     amoebot model, the Θ(diam)-round approach the paper's related work
//     discusses (Kostitsyna et al. compute shortest path trees in O(diam)
//     rounds for hole-free structures): each round the frontier beeps to
//     its neighbors, joining amoebots adopt a beeping neighbor as parent.
//
// Both take a parallel executor; nil runs the plain serial loop. The third
// baseline of the paper — the naive sequential merge in O(k log n) rounds
// (§5 introduction) — is built from the paper's own subroutines and lives
// in the core package (ForestSequentialEnv).
package baseline

import (
	"sync/atomic"

	"spforest/amoebot"
	"spforest/internal/par"
	"spforest/internal/sim"
)

// ExactExec computes, for every node of the region, the graph distance to
// the nearest source and one nearest source (the smallest node index among
// equidistant sources, for determinism). Unreachable or non-region nodes
// get distance -1. Sources outside the region are ignored.
//
// The frontier expansion fans out level by level over the exec (nil runs
// the plain serial BFS). Parallel workers claim newly discovered nodes with
// compare-and-swap — the claim winner varies, but the claimed distance is
// the level number either way — and each claimed node then derives its
// nearest source as the minimum over its previous-level neighbors, which is
// exactly the value the serial FIFO sweep converges to. dist and nearest
// are therefore byte-identical at every worker count.
func ExactExec(ex *par.Exec, region *amoebot.Region, sources []int32) (dist []int32, nearest []int32) {
	s := region.Structure()
	if ex.Workers() > 1 {
		return exactParallel(ex, region, sources)
	}
	dist = make([]int32, s.N())
	nearest = make([]int32, s.N())
	for i := range dist {
		dist[i] = -1
		nearest[i] = amoebot.None
	}
	queue := make([]int32, 0, region.Len())
	for _, src := range sources {
		if region.Contains(src) && dist[src] == -1 {
			dist[src] = 0
			nearest[src] = src
			queue = append(queue, src)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			v := region.Neighbor(u, d)
			if v == amoebot.None {
				continue
			}
			switch {
			case dist[v] == -1:
				dist[v] = dist[u] + 1
				nearest[v] = nearest[u]
				queue = append(queue, v)
			case dist[v] == dist[u]+1 && nearest[u] < nearest[v]:
				// Keep the smallest nearest-source index deterministic.
				nearest[v] = nearest[u]
			}
		}
	}
	return dist, nearest
}

// exactParallel is the level-synchronous multi-source BFS behind ExactExec.
func exactParallel(ex *par.Exec, region *amoebot.Region, sources []int32) (dist []int32, nearest []int32) {
	s := region.Structure()
	dist = make([]int32, s.N())
	nearest = make([]int32, s.N())
	for i := range dist {
		dist[i] = -1
		nearest[i] = amoebot.None
	}
	frontier := make([]int32, 0, len(sources))
	for _, src := range sources {
		if region.Contains(src) && dist[src] == -1 {
			dist[src] = 0
			nearest[src] = src
			frontier = append(frontier, src)
		}
	}
	for layer := int32(1); len(frontier) > 0; layer++ {
		// Expansion: workers claim undiscovered neighbors of their frontier
		// chunk with CAS on dist (-1 → layer). The claim winner is
		// schedule-dependent, the claimed value is not.
		next := par.ExpandLevel(ex, frontier, func(u int32, emit func(int32)) {
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if v := region.Neighbor(u, d); v != amoebot.None &&
					atomic.CompareAndSwapInt32(&dist[v], -1, layer) {
					emit(v)
				}
			}
		})
		// Refinement: each claimed node owns its nearest entry and derives
		// it as the minimum nearest over its previous-layer neighbors —
		// those entries were finalized last level, so the sweep is
		// data-race-free and order-independent.
		ex.Range(len(next), func(lo, hi int) {
			for _, v := range next[lo:hi] {
				best := amoebot.None
				for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
					u := region.Neighbor(v, d)
					if u == amoebot.None || dist[u] != layer-1 {
						continue
					}
					if best == amoebot.None || nearest[u] < best {
						best = nearest[u]
					}
				}
				nearest[v] = best
			}
		})
		frontier = next
	}
	return dist, nearest
}

// BFSForestExec computes an S-shortest-path forest for the region with the
// plain-model BFS wavefront, charging one round per distance layer
// (Θ(eccentricity(S)) = Θ(diam) rounds). Each joining amoebot adopts its
// smallest-direction beeping neighbor as parent.
//
// The wavefront expansion fans out level by level over the exec (nil runs
// the plain serial loop). Discovery claims race benignly (the claimed
// depth is the layer number regardless of the winner) and every joining
// amoebot then picks its parent purely from the finalized previous layer,
// so the forest, the per-layer beep counts and the round total are
// byte-identical at every worker count.
func BFSForestExec(ex *par.Exec, clock *sim.Clock, region *amoebot.Region, sources []int32) *amoebot.Forest {
	if ex.Workers() > 1 {
		return bfsForestParallel(ex, clock, region, sources)
	}
	s := region.Structure()
	f := amoebot.NewForest(s)
	depth := make([]int32, s.N())
	for i := range depth {
		depth[i] = -1
	}
	frontier := make([]int32, 0, len(sources))
	for _, src := range sources {
		if region.Contains(src) && depth[src] == -1 {
			depth[src] = 0
			f.SetRoot(src)
			frontier = append(frontier, src)
		}
	}
	for layer := int32(1); len(frontier) > 0; layer++ {
		clock.Tick(1)
		clock.AddBeeps(int64(len(frontier)))
		var next []int32
		for _, u := range frontier {
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if v := region.Neighbor(u, d); v != amoebot.None && depth[v] == -1 {
					depth[v] = layer
					next = append(next, v)
				}
			}
		}
		for _, v := range next {
			// v picks the smallest direction whose neighbor beeped (was at
			// the previous layer).
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				u := region.Neighbor(v, d)
				if u != amoebot.None && depth[u] == layer-1 {
					f.SetParent(v, u)
					break
				}
			}
		}
		frontier = next
	}
	return f
}

// bfsForestParallel is the level-synchronous wavefront behind
// BFSForestExec.
func bfsForestParallel(ex *par.Exec, clock *sim.Clock, region *amoebot.Region, sources []int32) *amoebot.Forest {
	s := region.Structure()
	f := amoebot.NewForest(s)
	depth := make([]int32, s.N())
	for i := range depth {
		depth[i] = -1
	}
	frontier := make([]int32, 0, len(sources))
	for _, src := range sources {
		if region.Contains(src) && depth[src] == -1 {
			depth[src] = 0
			f.SetRoot(src)
			frontier = append(frontier, src)
		}
	}
	for layer := int32(1); len(frontier) > 0; layer++ {
		clock.Tick(1)
		clock.AddBeeps(int64(len(frontier))) // beep count = layer size: schedule-independent
		next := par.ExpandLevel(ex, frontier, func(u int32, emit func(int32)) {
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				if v := region.Neighbor(u, d); v != amoebot.None &&
					atomic.CompareAndSwapInt32(&depth[v], -1, layer) {
					emit(v)
				}
			}
		})
		// Parent choice reads only the finalized previous layer: v adopts
		// its smallest-direction neighbor that beeped, exactly like the
		// serial sweep.
		ex.Range(len(next), func(lo, hi int) {
			for _, v := range next[lo:hi] {
				for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
					u := region.Neighbor(v, d)
					if u != amoebot.None && depth[u] == layer-1 {
						f.SetParent(v, u)
						break
					}
				}
			}
		})
		frontier = next
	}
	return f
}

// ExactForest builds a canonical (S,D)-shortest-path forest centrally from
// the exact distances: every destination walks to a source along
// smallest-direction predecessors, so each member's depth equals its
// nearest-source distance. It is the ground-truth counterpart of the
// distributed algorithms (zero simulated rounds) and returns nil if some
// destination lies outside the region or cannot reach a source.
func ExactForest(region *amoebot.Region, sources, dests []int32) *amoebot.Forest {
	dist, _ := ExactExec(nil, region, sources)
	return ExactForestFromDist(region, dist, sources, dests)
}

// ExactForestFromDist is ExactForest with the nearest-source distances
// precomputed (as returned by ExactExec for the same region and sources),
// so callers that memoize distances skip the BFS.
func ExactForestFromDist(region *amoebot.Region, dist []int32, sources, dests []int32) *amoebot.Forest {
	s := region.Structure()
	f := amoebot.NewForest(s)
	for _, src := range sources {
		if region.Contains(src) {
			f.SetRoot(src)
		}
	}
	for _, d := range dests {
		if !region.Contains(d) || dist[d] < 0 {
			return nil
		}
		for v := d; !f.Member(v); {
			p := amoebot.None
			for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
				if u := region.Neighbor(v, dir); u != amoebot.None && dist[u] == dist[v]-1 {
					p = u
					break
				}
			}
			if p == amoebot.None {
				// No predecessor: dist is inconsistent with (region,
				// sources) — e.g. memoized for a different source set.
				return nil
			}
			f.SetParent(v, p)
			v = p
		}
	}
	return f
}

// Eccentricity returns max_u dist(S, u) within the region (the BFS round
// count lower bound).
func Eccentricity(region *amoebot.Region, sources []int32) int {
	dist, _ := ExactExec(nil, region, sources)
	max := 0
	for _, u := range region.Nodes() {
		if int(dist[u]) > max {
			max = int(dist[u])
		}
	}
	return max
}
