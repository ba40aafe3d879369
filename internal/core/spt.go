package core

import (
	"spforest/amoebot"
	"spforest/internal/portal"
	"spforest/internal/sim"
)

// SPTEnv computes an ({s}, D)-shortest path forest of the region: a single
// tree rooted at the source, containing a shortest path (within the region)
// to every destination, pruned so that every leaf is a destination
// (Theorem 39). It runs in O(log ℓ) rounds: three portal root-and-prune
// executions (one per axis) plus a final root-and-prune over the
// chosen-parent forest.
//
// The region must be connected and hole-free, the source and destinations
// must lie inside it.
//
// The three per-axis portal decompositions are resolved concurrently
// (memoized ones through the env's portal source), the per-amoebot parent
// choice fans out over index chunks, and the final prune runs per tree —
// all bit-identical to the serial execution (the round accounting below
// never depends on the host schedule). It is SPTManyEnv over one source.
func SPTEnv(env *Env, clock *sim.Clock, region *amoebot.Region, source int32, dests []int32) *amoebot.Forest {
	return SPTManyEnv(env, []*sim.Clock{clock}, region, []int32{source}, dests)[0]
}

// rpDelta is one memoized root-and-prune execution together with its
// recorded clock deltas. RootPrune charges the clock only through Tick and
// AddBeeps (no forks, no phases), and its charges are a deterministic
// function of (view, root portal, Q) — so recording them on a scratch clock
// once and replaying the totals per sharing query yields accounting
// bit-identical to every query running the primitive itself.
type rpDelta struct {
	rp     *portal.RootPruneResult
	rounds int64
	beeps  int64
}

// SPTManyEnv answers a group of single-source SPT queries that share one
// destination set in one pass: sources[i] is charged on clocks[i] and
// receives forest [i] of the result. This is the shared-circuit entry point
// behind Engine.Batch's query grouping — the group shares the per-axis
// portal decompositions, each view's frozen crossing-edge circuit table,
// the per-axis destination marks, and every root-and-prune execution whose
// (axis, root portal) pair repeats across sources (sources on one portal
// share all the portal-tree work of that axis).
//
// Determinism rule: sources are processed strictly in index order, and
// every memoized primitive replays its recorded clock deltas, so each
// query's forest and stats are bit-identical to a solo SPTEnv call at every
// worker count — sharing changes host wall time only.
func SPTManyEnv(env *Env, clocks []*sim.Clock, region *amoebot.Region, sources []int32, dests []int32) []*amoebot.Forest {
	if len(clocks) != len(sources) {
		panic("core: clocks/sources length mismatch")
	}
	for _, source := range sources {
		if !region.Contains(source) {
			panic("core: source outside region")
		}
	}
	if len(dests) == 0 {
		panic("core: no destinations")
	}
	for _, d := range dests {
		if !region.Contains(d) {
			panic("core: destination outside region")
		}
	}

	axes := env.allAxes(region)
	// Per-axis destination marks: a pure function of (region, dests),
	// computed once for the whole group.
	var inQ [amoebot.NumAxes][]bool
	for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
		ports := axes[axis].ports
		q := make([]bool, ports.Len())
		for _, d := range dests {
			q[ports.ID[d]] = true
		}
		inQ[axis] = q
	}

	// Per axis: root the portal tree at portal_d(s) and prune subtrees
	// without destination portals (memoized per root portal across the
	// group; see rpDelta for why replaying the recorded deltas is exact).
	var memo [amoebot.NumAxes]map[int32]rpDelta
	for axis := range memo {
		memo[axis] = make(map[int32]rpDelta, 1)
	}
	out := make([]*amoebot.Forest, len(sources))
	for qi, source := range sources {
		clock := clocks[qi]
		var rps [amoebot.NumAxes]*portal.RootPruneResult
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			ports := axes[axis].ports
			// Destinations announce themselves on their portal circuits so
			// the portals know whether they are in Q (one round).
			clock.Tick(1)
			clock.AddBeeps(int64(len(dests)))
			root := ports.ID[source]
			d, hit := memo[axis][root]
			if !hit {
				var scratch sim.Clock
				d = rpDelta{rp: portal.RootPrune(&scratch, axes[axis].view, root, inQ[axis])}
				d.rounds, d.beeps = scratch.Rounds(), scratch.Beeps()
				memo[axis][root] = d
			}
			clock.Tick(d.rounds)
			clock.AddBeeps(d.beeps)
			rps[axis] = d.rp
		}
		out[qi] = sptExtract(env, clock, region, &axes, &rps, source, dests)
	}
	return out
}

// sptExtract is the per-source tail of the SPT algorithm: the local parent
// choice over the three pruned portal trees, child discovery, and the final
// prune to the destinations. It is inherently per query (the chosen-parent
// forest depends on the source), which is why the shared path folds result
// extraction per source in index order after the shared sweeps.
func sptExtract(env *Env, clock *sim.Clock, region *amoebot.Region,
	axes *[amoebot.NumAxes]axisInfo, rps *[amoebot.NumAxes]*portal.RootPruneResult,
	source int32, dests []int32) *amoebot.Forest {
	s := region.Structure()
	// Parent choice (Lemma 38 / Equation 1): v is a feasible parent of u
	// iff for both axes not parallel to the edge (u,v), v's portal is the
	// parent of u's portal. Every amoebot picks its first feasible neighbor
	// in counterclockwise order; this is a purely local decision — each
	// amoebot writes only its own forest entry, so the sweep fans out.
	chosen := amoebot.NewForest(s)
	chosen.SetRoot(source)
	nodes := region.Nodes()
	env.Exec().Range(len(nodes), func(lo, hi int) {
		for _, u := range nodes[lo:hi] {
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
	})

	// Parents announce themselves so the chosen-parent forest becomes a
	// usable tree structure, then the final root-and-prune with (s, D)
	// extracts the destination tree and silences stray components (§4).
	discoverChildren(clock, chosen, nodes)
	return pruneToDestinations(env, clock, chosen, nodes, []int32{source}, dests)
}
