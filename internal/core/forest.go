package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/sim"
)

// Schedule selects the order in which the merge phase processes the Q'
// portals.
type Schedule int

const (
	// ScheduleCentroid is the paper's schedule: portals are processed level
	// by level along the Q'-centroid decomposition tree, deepest first —
	// O(log k) parallel levels (§5.4.4).
	ScheduleCentroid Schedule = iota
	// ScheduleTreeDepth is the ablation: portals are processed one at a
	// time, bottom-up in the plain portal tree — Θ(k) sequential merge
	// steps. It demonstrates why the centroid decomposition is the
	// load-bearing ingredient of Theorem 56.
	ScheduleTreeDepth
)

// ForestEnv computes an (S,D)-shortest path forest of the region with the
// divide-and-conquer algorithm of §5.4 (Theorem 56, Corollary 57) in
// O(log n log² k) rounds:
//
//  1. Q = x-portals holding sources, Q' = Q ∪ A_Q (Lemma 51),
//  2. split the structure at the Q' portals and at the marked connector
//     amoebots into base regions meeting ≤ 2 portals of Q' (Lemma 52),
//  3. per base region: line algorithm on its Q' portal segment(s),
//     propagation into the region, merging (Lemma 54),
//  4. merge regions level by level along the Q'-centroid decomposition of
//     the x-portal tree, deepest centroids first (Lemmas 37/55),
//  5. final root-and-prune of every tree with (s, D) (Corollary 57).
//
// leader is the unique pre-elected amoebot (§2.1); its portal roots the
// portal tree. Use the leader package (or any source) to obtain one. sched
// selects the merge schedule: ScheduleCentroid is the paper's, and
// ScheduleTreeDepth exists for the ablation study.
//
// The x-portal decomposition resolves through the env's portal memo, the
// base cases fan out per region, and each centroid level's merges run
// concurrently when their region sets are host-disjoint (see mergeLevel).
// Outputs and round accounting are bit-identical at every worker count.
func ForestEnv(env *Env, clock *sim.Clock, region *amoebot.Region, sources, dests []int32, leader int32, sched Schedule) *amoebot.Forest {
	if len(sources) == 0 {
		panic("core: no sources")
	}
	if len(sources) == 1 {
		return SPTEnv(env, clock, region, sources[0], dests)
	}
	s := region.Structure()
	ar := env.Arena()

	// ---- §5.4.1: Q, Q', marks, base regions.
	ports, view, _ := env.portalsView(region, amoebot.AxisX)
	inQ := ar.Bools(ports.Len())
	defer ar.PutBools(inQ)
	for _, src := range sources {
		inQ[ports.ID[src]] = true
	}
	clock.Tick(1) // sources beep on their portal circuits (computes Q)
	clock.AddBeeps(int64(len(sources)))
	leaderPortal := ports.ID[leader]
	rpQ := portal.RootPrune(clock, view, leaderPortal, inQ)
	aq := portal.Augment(clock, view, rpQ)
	inQP := ar.Bools(ports.Len())
	defer ar.PutBools(inQP)
	qpCount := 0
	for id := range inQP {
		inQP[id] = inQ[id] || aq[id]
		if inQP[id] {
			qpCount++
		}
	}
	sp := buildSplit(region, ports, inQP, rpQ, ar)
	clock.Tick(1) // unmark the westernmost marked amoebot per portal (Lemma 52)

	// ---- §5.4.2 preprocessing: elect R' and root the portal tree at it.
	rPrime := portal.ElectPortal(clock, view, leaderPortal, inQP)
	if rPrime < 0 {
		panic("core: no Q' portal despite sources")
	}
	rpQP := portal.RootPrune(clock, view, rPrime, inQP)

	// ---- Base case per region, in parallel (Lemma 54). The regions are
	// disjoint computations over read-only shared data, so the simulator
	// runs them on worker goroutines (matching the model's parallelism);
	// the round accounting stays the max over regions either way.
	states := make([]*regionState, len(sp.regions))
	branches := make([]*sim.Clock, len(sp.regions))
	env.Exec().For(len(sp.regions), func(i int) {
		branches[i] = clock.Fork()
		states[i] = baseCase(env, branches[i], s, sp, sp.regions[i], rPrime, rpQP, sources)
	})
	clock.JoinMax(branches...)

	// ---- §5.4.3/5.4.4: merge level by level, deepest first. With the
	// paper's schedule the levels follow the Q'-centroid decomposition,
	// which the constant-memory amoebots recompute every iteration while a
	// distributed binary counter of [26] tracks the level; both costs are
	// charged per level. The ablation schedule instead walks the plain
	// portal tree bottom-up, one portal per step.
	var levels [][]int32
	var perLevelOverhead int64
	switch sched {
	case ScheduleCentroid:
		var decClock sim.Clock
		dec := portal.Decompose(&decClock, view, rPrime, inQP)
		maxDepth := 0
		for _, d := range dec.Depth {
			if d > maxDepth {
				maxDepth = d
			}
		}
		levels = make([][]int32, maxDepth+1)
		for id := int32(0); id < int32(ports.Len()); id++ {
			if d := dec.Depth[id]; d >= 0 {
				levels[maxDepth-d] = append(levels[maxDepth-d], id)
			}
		}
		perLevelOverhead = decClock.Rounds()
	case ScheduleTreeDepth:
		// Bottom-up in the rooted portal tree, strictly one portal per
		// level; identifying the current portal costs a PASC depth
		// comparison against the level counter. Depths come from one
		// memoized O(p) walk over the parent pointers (each portal's depth
		// is resolved exactly once) instead of a per-portal root walk.
		depth := ar.Int32s(ports.Len()) // stored depth+1; 0 = not yet known
		defer ar.PutInt32s(depth)
		var pending []int32
		depthOf := func(id int32) int {
			for u := id; depth[u] == 0; u = rpQP.Parent[u] {
				if rpQP.Parent[u] < 0 {
					depth[u] = 1
					break
				}
				pending = append(pending, u)
			}
			for i := len(pending) - 1; i >= 0; i-- {
				u := pending[i]
				depth[u] = depth[rpQP.Parent[u]] + 1
			}
			pending = pending[:0]
			return int(depth[id] - 1)
		}
		type pd struct {
			id int32
			d  int
		}
		var all []pd
		for id := int32(0); id < int32(ports.Len()); id++ {
			if inQP[id] {
				all = append(all, pd{id, depthOf(id)})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d > all[j].d
			}
			return all[i].id < all[j].id
		})
		for _, e := range all {
			levels = append(levels, []int32{e.id})
		}
		perLevelOverhead = int64(2*bits.Len(uint(qpCount))) + 2
	}
	for _, level := range levels {
		// Recompute / re-identify the level's portals, then increment the
		// level counter: its carry ripples along the chain in one beep
		// round on the prefix circuit of 1-bits (DESIGN.md §2).
		clock.Tick(perLevelOverhead + 1)
		clock.AddBeeps(1)
		states = mergeLevel(env, clock, s, sp, level, states)
	}
	if len(states) != 1 {
		panic(fmt.Sprintf("core: %d regions left after the merge phase", len(states)))
	}
	full := states[0].forest
	for _, src := range sources {
		if !full.Member(src) {
			panic("core: merged forest misses a source")
		}
	}
	// ---- Corollary 57: prune every tree to its destinations.
	return pruneToDestinations(env, clock, full, region, sources, dests, amoebot.NewForest(s))
}

// regionState is one current region with its (S∩region)-forest.
type regionState struct {
	region *amoebot.Region
	forest *amoebot.Forest
}

// baseCase computes the (S∩Y)-forest of one base region (Lemma 54): the
// line algorithm on the region's LCA portal segment, propagation into the
// region; if the region meets a second Q' portal, the same from there and a
// merge.
func baseCase(env *Env, clock *sim.Clock, s *amoebot.Structure, sp *splitRegions, br *baseRegion, rPrime int32, rpQP *portal.RootPruneResult, sources []int32) *regionState {
	ar := env.Arena()
	isSource := ar.BitSet(s.N())
	defer ar.PutBitSet(isSource)
	for _, src := range sources {
		isSource.Add(src)
	}
	// Identify the LCA portal among the region's Q' portals (Lemma 53):
	// it is R' or its parent portal does not intersect the region.
	inRegionPortal := ar.BitSet(sp.ports.Len())
	defer ar.PutBitSet(inRegionPortal)
	for _, u := range br.nodes.Nodes() {
		inRegionPortal.Add(sp.ports.ID[u])
	}
	lca := -1
	for i, id := range br.qpPortals {
		if id == rPrime || rpQP.Parent[id] < 0 || !inRegionPortal.Has(rpQP.Parent[id]) {
			lca = i
			break
		}
	}
	if lca < 0 {
		panic("core: base region without an LCA portal (Lemma 53)")
	}
	ordered := make([]int, 0, len(br.qpPortals))
	ordered = append(ordered, lca)
	for i := range br.qpPortals {
		if i != lca {
			ordered = append(ordered, i)
		}
	}
	clock.Tick(1) // the descendant portal (if any) beeps on the region circuit

	// Each line forest lives on its portal run, and propagates into the
	// side of the run the region lies on (none for a fused pure-segment
	// region): B is the region minus the run.
	var acc *amoebot.Forest
	for i, qi := range ordered {
		pnodes := sp.portalNodesIn(br, br.qpPortals[qi])
		var segSources []int32
		for _, u := range pnodes {
			if isSource.Has(u) {
				segSources = append(segSources, u)
			}
		}
		f := LineForestEnv(env, clock, s, pnodes, segSources)
		if side := br.sides[qi]; side != noSide {
			propagate(env, clock, br.nodes, br.nodes, pnodes, pnodes, f, side)
		}
		if i == 0 {
			acc = f
		} else {
			merge(env, clock, br.nodes.Nodes(), acc, f)
		}
	}
	return &regionState{region: br.nodes, forest: acc}
}

// mergeLevel executes one level of the merge schedule. The serial
// reference walks the level's portals in order, each rewriting the state
// list via mergeAlongPortal. The model runs the level's merges
// simultaneously, and the host can too whenever the active portals' —
// those meeting ≥ 2 current regions — touching sets are pairwise disjoint
// (the generic case: centroid levels live in disjoint subtrees of the
// decomposition). Under that disjointness the serial walk provably ends
// with
//
//	[states untouched by any active portal, original order] +
//	[one merged state per active portal, level order]
//
// which is exactly what the concurrent path produces, so the state-list
// evolution — and with it every later touching/rest split and side
// classification — is bit-identical. Overlapping touching sets fall back
// to the serial walk, and the centroid schedule does produce them: a base
// region that buildSplit leaves meeting more than two Q' portals (Lemma
// 52's bound) touches each of them, and two of them can share a level;
// Comb(8, 250) with k = 4 yields a region meeting four, three on one
// level (TestIntraWorkersByteIdentical runs it). Branch clocks join in
// level order on both paths.
func mergeLevel(env *Env, clock *sim.Clock, s *amoebot.Structure, sp *splitRegions, level []int32, states []*regionState) []*regionState {
	serial := func() []*regionState {
		lb := make([]*sim.Clock, 0, len(level))
		for _, p := range level {
			branch := clock.Fork()
			lb = append(lb, branch)
			states = mergeAlongPortal(env, branch, s, sp, p, states)
		}
		clock.JoinMax(lb...)
		return states
	}
	if len(level) == 1 || env.Exec().Workers() <= 1 {
		return serial()
	}
	touching := make([][]*regionState, len(level))
	for i, p := range level {
		pnodes := sp.ports.NodesOf(p)
		for _, st := range states {
			if st.region.ContainsAny(pnodes) {
				touching[i] = append(touching[i], st)
			}
		}
	}
	// Active portals must not share a region; a shared region would make a
	// later merge depend on an earlier one's output.
	inActive := make(map[*regionState]bool)
	for i := range touching {
		if len(touching[i]) < 2 {
			continue // no-op at this level: 0 or 1 touching regions
		}
		for _, st := range touching[i] {
			if inActive[st] {
				return serial()
			}
			inActive[st] = true
		}
	}
	merged := make([]*regionState, len(level))
	branches := make([]*sim.Clock, len(level))
	env.Exec().For(len(level), func(i int) {
		if len(touching[i]) < 2 {
			return
		}
		branches[i] = clock.Fork()
		merged[i] = mergeTouching(env, branches[i], s, sp, level[i], touching[i])
	})
	out := make([]*regionState, 0, len(states))
	for _, st := range states {
		if !inActive[st] {
			out = append(out, st)
		}
	}
	for _, m := range merged {
		if m != nil {
			out = append(out, m)
		}
	}
	live := branches[:0]
	for _, b := range branches {
		if b != nil {
			live = append(live, b)
		}
	}
	clock.JoinMax(live...)
	return out
}

// mergeAlongPortal merges all current regions intersecting portal p into
// one (Lemma 55) and returns the rewritten state list; with fewer than two
// touching regions it is a no-op.
func mergeAlongPortal(env *Env, clock *sim.Clock, s *amoebot.Structure, sp *splitRegions, p int32, states []*regionState) []*regionState {
	pnodes := sp.ports.NodesOf(p)
	var touching []*regionState
	var rest []*regionState
	for _, st := range states {
		if st.region.ContainsAny(pnodes) {
			touching = append(touching, st)
		} else {
			rest = append(rest, st)
		}
	}
	if len(touching) == 0 {
		return states // nothing at this portal (already absorbed)
	}
	if len(touching) == 1 {
		return states // single region already spans the portal
	}
	return append(rest, mergeTouching(env, clock, s, sp, p, touching))
}

// mergeTouching merges the ≥ 2 given regions along portal p into one:
// phase 1 pairs the regions of each side across the marked amoebots (one
// PASC-parity iteration per round of pairings), merging each pair through
// its separating cut amoebot (SPT propagation + merging); phase 2 joins
// the two sides with two propagations and a merge. touching must be in
// state-list order (the side classification of pure-segment regions
// depends on it). The merges consume the touching states: their forests
// are rewritten in place.
func mergeTouching(env *Env, clock *sim.Clock, s *amoebot.Structure, sp *splitRegions, p int32, touching []*regionState) *regionState {
	ar := env.Arena()
	pnodes := sp.ports.NodesOf(p)
	// Classify each touching region to a side of p: the side of its
	// non-portal body adjacent to p.
	var bySide [amoebot.NumSides][]*regionState
	for _, st := range touching {
		side, ok := regionSideOf(st.region, pnodes)
		if !ok {
			// A pure-segment region (no body): park it on the side with
			// fewer regions; it only contributes its portal nodes.
			side = amoebot.SideA
			if len(bySide[amoebot.SideA]) > len(bySide[amoebot.SideB]) {
				side = amoebot.SideB
			}
		}
		bySide[side] = append(bySide[side], st)
	}

	// Phase 1: per side, merge across the marked amoebots by PASC parity,
	// one pairing round at a time (mergeParityRound).
	marks := sp.marksOf[p]
	for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
		regions := bySide[side]
		if len(regions) <= 1 {
			continue
		}
		active := append([]int32(nil), marks...)
		for len(active) > 0 && len(regions) > 1 {
			clock.Tick(3) // termination beep + one PASC-parity iteration (§5.4.3)
			var odd, even []int32
			for i, m := range active {
				if i%2 == 0 {
					odd = append(odd, m)
				} else {
					even = append(even, m)
				}
			}
			regions = mergeParityRound(env, clock, odd, regions)
			active = even
		}
		bySide[side] = regions
	}

	// Phase 2: join the (at most one per side) remaining regions across p.
	// Each lies on its side of p, so north's forest propagates into
	// south \ p and south's into north \ p.
	north := collapseSame(bySide[amoebot.SideA])
	south := collapseSame(bySide[amoebot.SideB])
	var out *regionState
	switch {
	case north == nil && south == nil:
		panic("core: portal with no adjacent regions")
	case south == nil:
		out = north
	case north == nil:
		out = south
	case north == south:
		out = north
	default:
		whole := north.region.Union(south.region).Union(amoebot.NewRegion(s, pnodes))
		extendAlongPortal(ar, clock, north, pnodes)
		extendAlongPortal(ar, clock, south, pnodes)
		propagate(env, clock, whole, south.region, pnodes, whole.Nodes(), north.forest, amoebot.SideB)
		propagate(env, clock, whole, north.region, pnodes, whole.Nodes(), south.forest, amoebot.SideA)
		merge(env, clock, whole.Nodes(), north.forest, south.forest)
		out = &regionState{region: whole, forest: north.forest}
	}
	return out
}

// collapseSame reduces a side's region list to a single state (they must
// all be the same region by the end of phase 1).
func collapseSame(regions []*regionState) *regionState {
	if len(regions) == 0 {
		return nil
	}
	if len(regions) > 1 {
		panic(fmt.Sprintf("core: %d regions remain on one side after phase 1", len(regions)))
	}
	return regions[0]
}

// regionSideOf classifies a region to the side of the portal its body lies
// on. ok=false when the region consists of portal nodes only. A y- or
// z-neighbor of a portal amoebot lies off the portal's row.
func regionSideOf(r *amoebot.Region, pnodes []int32) (amoebot.Side, bool) {
	for _, u := range pnodes {
		if !r.Contains(u) {
			continue
		}
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if d.Axis() == amoebot.AxisX {
				continue
			}
			v := r.Neighbor(u, d)
			if v == amoebot.None {
				continue
			}
			side, _ := amoebot.AxisX.SideOf(d)
			return side, true
		}
	}
	return 0, false
}

// mergeParityRound executes one PASC-parity pairing round over one side's
// current regions: it walks the round's odd marks in order, at each mark
// pairing the current regions containing it and merging them through the
// cut (mergePairAtCut) on a branch clock of its own, rewriting the region
// list as it goes. The model runs the round's merges simultaneously, so the
// branch clocks join by their maximum.
func mergeParityRound(env *Env, clock *sim.Clock, odd []int32, regions []*regionState) []*regionState {
	branches := make([]*sim.Clock, 0, len(odd))
	for _, m := range odd {
		var a, b *regionState
		for _, st := range regions {
			if st.region.Contains(m) {
				if a == nil {
					a = st
				} else if st != a {
					b = st
				}
			}
		}
		if a == nil || b == nil {
			continue // the mark no longer separates two regions here
		}
		branch := clock.Fork()
		branches = append(branches, branch)
		merged := mergePairAtCut(env, branch, a, b, m)
		var next []*regionState
		for _, st := range regions {
			if st != a && st != b {
				next = append(next, st)
			}
		}
		regions = append(next, merged)
	}
	clock.JoinMax(branches...)
	return regions
}

// mergePairAtCut merges two regions sharing exactly the cut amoebot m
// (§5.4.3, phase 1, third step): every shortest path between the regions
// passes m, so each side's forest extends into the other side by an SPT
// rooted at m, and the merging algorithm combines the two extensions. It
// consumes both states, merging b's forest into a's.
func mergePairAtCut(env *Env, clock *sim.Clock, a, b *regionState, m int32) *regionState {
	extendThroughCut(env, clock, a, b.region, m)
	extendThroughCut(env, clock, b, a.region, m)
	union := a.region.Union(b.region)
	merge(env, clock, union.Nodes(), a.forest, b.forest)
	return &regionState{region: union, forest: a.forest}
}

// emptyForest reports whether the state's forest has no member (its region
// holds no source), scanning the region up to the first member.
func (st *regionState) emptyForest() bool {
	return !slices.ContainsFunc(st.region.Nodes(), st.forest.Member)
}

// extendThroughCut extends own's forest in place into the other region
// through the cut amoebot m: an SPT rooted at m covers the other side and
// is grafted onto own's forest (the pair overlaps only on m).
func extendThroughCut(env *Env, clock *sim.Clock, own *regionState, other *amoebot.Region, m int32) {
	if own.emptyForest() || other.Len() <= 1 {
		return
	}
	sub := SPTEnv(env, clock, other, m, other.Nodes())
	for _, u := range other.Nodes() {
		if u == m || own.forest.Member(u) {
			continue // the pair overlaps only on m
		}
		if p := sub.Parent(u); p != amoebot.None {
			own.forest.SetParent(u, p)
		}
	}
}

// extendAlongPortal completes the state's forest in place over the portal
// run: uncovered portal amoebots (segments whose only bodies lie on the
// opposite side) adopt the parent towards the nearest covered portal
// amoebot, weighting it by its tree depth. A PASC sweep along the portal
// delivers the distances (charged logarithmically); the shortest paths
// involved run along the portal itself, so correctness follows from the
// grid metric.
func extendAlongPortal(ar *dense.Arena, clock *sim.Clock, st *regionState, pnodes []int32) {
	f := st.forest
	if st.emptyForest() {
		return
	}
	covered := 0
	for _, u := range pnodes {
		if f.Member(u) {
			covered++
		}
	}
	if covered == len(pnodes) {
		return
	}
	// best[i]: minimal depth(w) + |i - pos(w)| over covered w, tracked in
	// two sweeps (west-to-east and east-to-west), the distributed analogue
	// being the weighted line PASC of §5.1. The two minima columns are
	// arena-recycled int32 SoA scratch: depths are bounded by n < 2³¹ and
	// the per-level merges of one forest query run this on every portal.
	n := len(pnodes)
	const inf = int32(1) << 29 // headroom: inf + n stays well below 2³¹
	bestW := ar.Int32s(n)
	bestE := ar.Int32s(n)
	defer ar.PutInt32s(bestW)
	defer ar.PutInt32s(bestE)
	run := inf
	for i := 0; i < n; i++ {
		run++
		if f.Member(pnodes[i]) {
			if d := int32(f.Depth(pnodes[i])); d < run {
				run = d
			}
		}
		bestW[i] = run
	}
	run = inf
	for i := n - 1; i >= 0; i-- {
		run++
		if f.Member(pnodes[i]) {
			if d := int32(f.Depth(pnodes[i])); d < run {
				run = d
			}
		}
		bestE[i] = run
	}
	// In place: slot i is written after the sweeps and its own test.
	maxVal := int32(1)
	for i := 0; i < n; i++ {
		if f.Member(pnodes[i]) {
			continue
		}
		if bestW[i] <= bestE[i] {
			f.SetParent(pnodes[i], pnodes[i-1])
			if bestW[i] < inf/2 && bestW[i] > maxVal {
				maxVal = bestW[i]
			}
		} else {
			f.SetParent(pnodes[i], pnodes[i+1])
			if bestE[i] < inf/2 && bestE[i] > maxVal {
				maxVal = bestE[i]
			}
		}
	}
	clock.Tick(int64(2 * bits.Len(uint(maxVal)))) // weighted line PASC
}

// ForestSequentialEnv is the naive multi-source approach the paper
// describes as the O(k log n) baseline (§5 introduction): one SPT per
// source, merged sequentially, then the final prune to the destinations.
// The per-source SPTs merge sequentially by definition — that is the
// baseline being measured — but each SPT's internal sweeps fan out.
func ForestSequentialEnv(env *Env, clock *sim.Clock, region *amoebot.Region, sources, dests []int32) *amoebot.Forest {
	if len(sources) == 0 {
		panic("core: no sources")
	}
	ordered := append([]int32(nil), sources...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	acc := SPTEnv(env, clock, region, ordered[0], region.Nodes())
	for _, src := range ordered[1:] {
		merge(env, clock, region.Nodes(), acc, SPTEnv(env, clock, region, src, region.Nodes()))
	}
	return pruneToDestinations(env, clock, acc, region, sources, dests, amoebot.NewForest(region.Structure()))
}
