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
// Both are one serial sweep. They keep the parallel executor parameter
// that the solver call sites and the benchmark's layer probes pass, but do
// not use it: a level-synchronous flood fill that claims nodes with
// compare-and-swap was slower than the FIFO sweep even at two workers,
// because each level costs a fan-out and every claim an atomic operation,
// while the sweep does a few loads per edge.
//
// The third baseline of the paper — the naive sequential merge in
// O(k log n) rounds (§5 introduction) — is built from the paper's own
// subroutines and lives in the core package (ForestSequentialEnv).
package baseline

import (
	"spforest/amoebot"
	"spforest/internal/par"
	"spforest/internal/sim"
)

// ExactExec computes, for every node of the region, the graph distance to
// the nearest source and one nearest source (the smallest node index among
// equidistant sources, for determinism). Unreachable or non-region nodes
// get distance -1. Sources outside the region are ignored. It is the FIFO
// multi-source BFS; the executor is unused.
func ExactExec(_ *par.Exec, region *amoebot.Region, sources []int32) (dist []int32, nearest []int32) {
	s := region.Structure()
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

// BFSForestExec computes an S-shortest-path forest for the region with the
// plain-model BFS wavefront, charging one round per distance layer
// (Θ(eccentricity(S)) = Θ(diam) rounds) and one beep per frontier amoebot.
// Each joining amoebot adopts its smallest-direction beeping neighbor as
// parent. The wavefront is swept serially; the executor is unused.
func BFSForestExec(_ *par.Exec, clock *sim.Clock, region *amoebot.Region, sources []int32) *amoebot.Forest {
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
