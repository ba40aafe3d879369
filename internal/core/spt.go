package core

import (
	"spforest/amoebot"
	"spforest/internal/par"
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
// choice fans out over index chunks, and the final prune walks up from the
// destinations — all bit-identical to the serial execution (the round
// accounting below never depends on the host schedule). It is SPTManyEnv
// over one source.
func SPTEnv(env *Env, clock *sim.Clock, region *amoebot.Region, source int32, dests []int32) *amoebot.Forest {
	return SPTManyEnv(env, []*sim.Clock{clock}, region, []int32{source}, dests)[0]
}

// SPTManyEnv answers a group of single-source SPT queries that share one
// destination set in one pass: sources[i] is charged on clocks[i] and
// receives forest [i] of the result. This is the shared-circuit entry point
// behind Engine.Batch's query grouping — the group shares the per-axis
// portal decompositions and their whole views and the per-axis destination
// marks; each source then runs its own portal root-and-prunes, which cost
// work in the portal tree, not the structure.
//
// Determinism rule: sources are processed strictly in index order, each on
// its own clock, so each query's forest and stats are bit-identical to a
// solo SPTEnv call at every worker count — sharing changes host wall time
// only.
func SPTManyEnv(env *Env, clocks []*sim.Clock, region *amoebot.Region, sources []int32, dests []int32) []*amoebot.Forest {
	out := make([]*amoebot.Forest, len(sources))
	for i := range out {
		out[i] = amoebot.NewForest(region.Structure())
	}
	sptMany(env, clocks, region, sources, dests, out)
	return out
}

// sptMany is SPTManyEnv writing sources[i]'s forest into out[i], which
// must hold no member in the region; its entries outside the region stay
// as they are. Its host work scales with the region: the chosen-parent
// forests are scratch, and the decompositions it computes itself (those
// the portal source does not memoize) hand their columns back.
func sptMany(env *Env, clocks []*sim.Clock, region *amoebot.Region, sources, dests []int32, out []*amoebot.Forest) {
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
	// without destination portals.
	for qi, source := range sources {
		clock := clocks[qi]
		var rps [amoebot.NumAxes]*portal.RootPruneResult
		for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
			// Destinations announce themselves on their portal circuits so
			// the portals know whether they are in Q (one round).
			clock.Tick(1)
			clock.AddBeeps(int64(len(dests)))
			root := axes[axis].ports.ID[source]
			rps[axis] = portal.RootPrune(clock, axes[axis].view, root, inQ[axis])
		}
		chosen, chose := chooseParents(env, region, &axes, &rps, source)
		// Every amoebot that chose a parent beeps on the shared edge so
		// parents learn their children (one round), then the final
		// root-and-prune with (s, D) extracts the destination tree and
		// silences stray components (§4).
		clock.Tick(1)
		clock.AddBeeps(chose)
		pruneToDestinations(env, clock, chosen, region, []int32{source}, dests, out[qi])
		chosen.ReleaseScratch(region.Nodes())
	}
	for _, a := range axes {
		if a.fresh {
			a.ports.Release()
		}
	}
}

// crossAxes lists, per direction, the two axes not parallel to it.
var crossAxes = func() (t [amoebot.NumDirections][2]amoebot.Axis) {
	for d := range t {
		a := amoebot.Direction(d).Axis()
		t[d] = [2]amoebot.Axis{(a + 1) % amoebot.NumAxes, (a + 2) % amoebot.NumAxes}
	}
	return t
}()

// chooseParents is the local parent choice of the SPT algorithm over the
// three pruned portal trees (Lemma 38 / Equation 1): v is a feasible parent
// of u iff for both axes not parallel to the edge (u,v), v's portal is the
// parent of u's portal. Every amoebot picks its first feasible neighbor in
// counterclockwise order; this is a purely local decision — each amoebot
// writes only its own forest entry, so the sweep fans out over chunks and
// sums the chunks' counts of amoebots that chose a parent, which it
// returns with the forest. The forest is scratch: it sets only region
// nodes (the source lies in the region), so ReleaseScratch(region.Nodes())
// hands its column back clean.
//
// The rule needs no membership test. Parent is −1 for the root portal and
// for pruned ones, so a wanted parent portal ≥ 0 puts u's portal in V_Q,
// and a direction whose two wanted portals are not both ≥ 0 is skipped
// unread. Portals.ID is −1 outside the region the decomposition covers —
// the SPT's region — so a structure neighbor outside it never matches.
func chooseParents(env *Env, region *amoebot.Region,
	axes *[amoebot.NumAxes]axisInfo, rps *[amoebot.NumAxes]*portal.RootPruneResult,
	source int32) (*amoebot.Forest, int64) {
	s := region.Structure()
	chosen := amoebot.NewScratchForest(s)
	chosen.SetRoot(source)
	var ids, parents [amoebot.NumAxes][]int32
	for a := range ids {
		ids[a], parents[a] = axes[a].ports.ID, rps[a].Parent
	}
	nodes := region.Nodes()
	n := par.Reduce(env.Exec(), len(nodes), func(lo, hi int) int64 {
		n := int64(0)
		for _, u := range nodes[lo:hi] {
			var want [amoebot.NumAxes]int32 // u's parent portals; the source's are all −1
			for a := range want {
				want[a] = parents[a][ids[a][u]]
			}
			for d, ab := range crossAxes {
				a, b := ab[0], ab[1]
				if want[a] < 0 || want[b] < 0 {
					continue
				}
				if v := s.Neighbor(u, amoebot.Direction(d)); v != amoebot.None && ids[a][v] == want[a] && ids[b][v] == want[b] {
					chosen.SetParent(u, v)
					n++
					break
				}
			}
		}
		return n
	}, func(acc, part int64) int64 { return acc + part })
	return chosen, n
}
