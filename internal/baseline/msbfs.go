package baseline

import (
	"math/bits"

	"spforest/amoebot"
	"spforest/internal/sim"
)

// MaxBFSLanes is the number of BFS waves one BFSForestMany call can carry:
// one per bit of the widest per-node lane word.
const MaxBFSLanes = 64

// laneWord is a per-node lane word: bit l belongs to lane l.
type laneWord interface {
	uint8 | uint16 | uint32 | uint64
}

// BFSForestMany runs up to 64 BFSForestExec wavefronts over one region as lanes
// of a single physical sweep (MS-BFS-style lane packing; the intra-query
// analogue of the circuit reuse in DESIGN.md §10): per node, the seen /
// frontier / next sets of all lanes live in one lane word each, so every
// layer expands all still-running waves in one pass over the union frontier
// instead of one pass per source set. The word is the narrowest of uint8,
// uint16, uint32 and uint64 that holds the lanes, so a sweep of few lanes
// reads few bytes per node.
//
// Lane i advances on clocks[i] and is charged exactly what its solo
// BFSForestExec run charges — one round and frontier-size beeps per layer,
// for exactly as many layers as its own wavefront lives — and produces the
// bit-identical forest: a node's depth in lane i equals the layer its lane-i
// frontier bit was set, so the smallest-direction parent rule below picks
// the same parent the solo run picks.
//
// Cells outside the region start seen in every lane, so no lane bit ever
// reaches them and their frontier word stays 0: both sweeps read the
// structure's adjacency with no membership test.
func BFSForestMany(clocks []*sim.Clock, region *amoebot.Region, sourceSets [][]int32) []*amoebot.Forest {
	lanes := len(sourceSets)
	if lanes == 0 || lanes > MaxBFSLanes {
		panic("baseline: BFSForestMany lane count out of range")
	}
	if len(clocks) != lanes {
		panic("baseline: BFSForestMany clock count mismatch")
	}
	switch {
	case lanes <= 8:
		return bfsForestMany[uint8](clocks, region, sourceSets)
	case lanes <= 16:
		return bfsForestMany[uint16](clocks, region, sourceSets)
	case lanes <= 32:
		return bfsForestMany[uint32](clocks, region, sourceSets)
	default:
		return bfsForestMany[uint64](clocks, region, sourceSets)
	}
}

// bfsForestMany is BFSForestMany's sweep over lane words of type W.
func bfsForestMany[W laneWord](clocks []*sim.Clock, region *amoebot.Region, sourceSets [][]int32) []*amoebot.Forest {
	lanes := len(sourceSets)
	s := region.Structure()
	forests := make([]*amoebot.Forest, lanes)
	seen := make([]W, s.N())
	if region.Len() < s.N() {
		for i := range seen {
			seen[i] = ^W(0)
		}
		for _, u := range region.Nodes() {
			seen[u] = 0
		}
	}
	frontier := make([]W, s.N())
	next := make([]W, s.N())
	var frontierNodes, spare []int32 // spare: the previous frontier's list, reused
	for l, sources := range sourceSets {
		forests[l] = amoebot.NewForest(s)
		bit := W(1) << uint(l)
		for _, src := range sources {
			if seen[src]&bit == 0 { // a source outside the region is seen
				seen[src] |= bit
				if frontier[src] == 0 {
					frontierNodes = append(frontierNodes, src)
				}
				frontier[src] |= bit
				forests[l].SetRoot(src)
			}
		}
	}
	// Per-lane frontier sizes are accumulated at discovery time (one count
	// per newly set bit), so each layer starts with its accounting ready
	// instead of re-popcounting the whole frontier.
	size := make([]int64, lanes)
	sizeNext := make([]int64, lanes)
	for _, u := range frontierNodes {
		for w := frontier[u]; w != 0; w &= w - 1 {
			size[bits.TrailingZeros64(uint64(w))]++
		}
	}
	for len(frontierNodes) > 0 {
		// Per-lane accounting: a lane whose frontier still lives is charged
		// one round plus one beep per frontier node, exactly like its solo
		// layer; a finished lane's clock no longer advances.
		for l, n := range size {
			if n > 0 {
				clocks[l].Tick(1)
				clocks[l].AddBeeps(n)
			}
		}
		// Expansion over the union frontier: lane bits spread to unseen
		// neighbors. seen is updated only after the pass (below, fused into
		// the parent sweep), so discovery does not depend on the order of
		// frontierNodes.
		clear(sizeNext)
		nextNodes := spare[:0]
		for _, u := range frontierNodes {
			fu := frontier[u]
			for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
				v := s.Neighbor(u, d)
				if v == amoebot.None {
					continue
				}
				if cand := fu &^ seen[v]; cand != 0 {
					old := next[v]
					if old == 0 {
						nextNodes = append(nextNodes, v)
					}
					for w := cand &^ old; w != 0; w &= w - 1 {
						sizeNext[bits.TrailingZeros64(uint64(w))]++
					}
					next[v] |= cand
				}
			}
		}
		// Parent choice per discovered (node, lane): the smallest direction
		// whose neighbor carries the lane's frontier bit — the neighbor the
		// solo run sees at depth layer-1. Marking v seen here is safe: the
		// expansion pass is over, and this sweep reads only frontier.
		for _, v := range nextNodes {
			seen[v] |= next[v]
			rem := next[v]
			for d := amoebot.Direction(0); d < amoebot.NumDirections && rem != 0; d++ {
				u := s.Neighbor(v, d)
				if u == amoebot.None {
					continue
				}
				take := rem & frontier[u]
				for w := take; w != 0; w &= w - 1 {
					forests[bits.TrailingZeros64(uint64(w))].SetParent(v, u)
				}
				rem &^= take
			}
		}
		for _, u := range frontierNodes {
			frontier[u] = 0
		}
		frontier, next = next, frontier
		frontierNodes, spare = nextNodes, frontierNodes
		size, sizeNext = sizeNext, size
	}
	return forests
}
