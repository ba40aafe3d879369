package engine

import (
	"spforest/amoebot"
	"spforest/internal/core"
	"spforest/internal/portal"
)

// Apply derives a new engine for the structure obtained by applying the
// delta, reusing the receiver's memoized preprocessing wherever it
// survives the mutation instead of rebuilding from scratch:
//
//   - the structure itself is mutated with amoebot.Structure.ApplyRemap
//     (one pass over the index segments between delta positions, each
//     copied and its adjacency rows shifted; incremental validation — no
//     O(n) re-validate on the common path), which also hands over the
//     old → new index remap the migrations below share;
//   - a derived engine of the receiver's size shares its identity node
//     list (amoebot.WholeRegionFrom), and so does its x decomposition,
//     so a translate step allocates only the columns the new structure
//     must own;
//   - the leader survives whenever its amoebot does: the derived engine is
//     primed with it and no query is ever charged a re-election. Only a
//     delta that removes the leader (or a configured Config.Leader) sends
//     the derived engine back to lazy election;
//   - every portal decomposition the receiver memoized is patched around
//     the delta's footprint (portal.Patch, which reads the x axis off the
//     rows) when the footprint admits local repair, and invalidated back
//     to lazy recomputation otherwise; the child takes the patched
//     decomposition's whole view with it — see migratePortals and
//     DESIGN.md §8.
//
// The exact-distance memo is not carried: the derived engine starts with
// an empty one and computes an entry on its first use (one BFS), so a step
// costs the same whether or not the receiver memoized distances.
//
// The receiver is unchanged and remains usable; both engines may serve
// queries concurrently. The derived engine's CacheStats records the
// portal migration (PortalsPatched, PortalsRebuilt) and its Generation is
// the receiver's plus one. An empty delta returns the receiver itself,
// every memo intact.
func (e *Engine) Apply(d amoebot.Delta) (*Engine, error) {
	ns, remap, err := e.s.ApplyRemap(d)
	if err != nil {
		return nil, err
	}
	if ns == e.s {
		return e, nil
	}
	ne := &Engine{
		s:       ns,
		region:  amoebot.WholeRegionFrom(ns, e.region), // the parent's identity node list
		cfg:     e.cfg,
		workers: e.workers,
		gen:     e.gen + 1,
		// The scratch arena — and with it the intra-query executor — adapts
		// to the new structure size on first use, so the Apply chain keeps
		// recycling one pool.
		arena:     e.arena,
		exec:      e.exec,
		batchExec: e.batchExec,
		distCache: make(map[string][]int32),
	}
	// The portal memo is per structure: the derived engine gets a fresh
	// environment over its own (empty) inspect state.
	ne.env = core.NewEnv(ne.exec, (*enginePortalSource)(ne))

	// Leader survival: a configured leader that was removed falls back to
	// lazy election; an elected (or inherited) leader is carried over
	// whenever its amoebot survives. The election cost stays with
	// the ancestor that paid it — no query on the derived engine is
	// charged preprocessing.
	if e.cfg.Leader != nil {
		if i, ok := ns.Index(*e.cfg.Leader); ok {
			ne.setLeader(i)
		} else {
			ne.cfg.Leader = nil
		}
	} else if e.leaderKnown.Load() {
		if i := remap[e.leaderIdx]; i != amoebot.None {
			ne.setLeader(i)
		}
	}
	ne.migratePortals(e, d, remap)
	return ne, nil
}

// migratePortals patches the parent's memoized portal decompositions into
// the derived engine when the delta's footprint admits local repair: each
// axis whose memo exists on the parent is repaired around the footprint
// (portal.Patch) and memoized on the child with its whole view, instead of
// leaving the child to recompute it from scratch on first use. Axes the
// parent never built have nothing to migrate; when the footprint is too
// large for the patch to beat a rebuild, or the parent is holed, the built
// axes are invalidated and the counters record the decision
// (CacheStats.PortalsPatched / PortalsRebuilt).
func (ne *Engine) migratePortals(e *Engine, d amoebot.Delta, remap []int32) {
	built := 0
	for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
		if e.inspect.portalBuilt[axis].Load() {
			built++
		}
	}
	if built == 0 {
		return
	}
	fp := d.Footprint()
	// Local-repair policy: the patch copies the clean portals once but
	// does portal-shaped work only inside the footprint; past a quarter of
	// the structure the dirty zone dominates and a fresh compute is no
	// worse. A holed parent keeps the lazy rebuild too. Patch would be exact
	// there (its locality argument never uses hole-freeness), but a holed
	// parent built its portals only for inspection, since holed engines
	// answer no portal query, and Apply accepts a delta from it only when
	// the result fills every hole. The child itself is hole-free: Apply
	// validated it.
	if e.holes > 0 || fp.Size() > ne.s.N()/4 {
		ne.distStats.PortalsRebuilt += int64(built)
		return
	}
	footOld := make([]int32, 0, len(fp.Coords))
	footNew := make([]int32, 0, len(fp.Coords))
	for _, c := range fp.Coords {
		if i, ok := e.s.Index(c); ok {
			footOld = append(footOld, i)
		}
		if i, ok := ne.s.Index(c); ok {
			footNew = append(footNew, i)
		}
	}
	sp := &portal.PatchSpec{Region: ne.region, Remap: remap, FootOld: footOld, FootNew: footNew}
	for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
		if !e.inspect.portalBuilt[axis].Load() {
			continue
		}
		np := e.inspect.raw[axis].Patch(sp)
		ne.inspect.portalOnce[axis].Do(func() { ne.inspect.set(axis, np) })
		ne.distStats.PortalsPatched++
	}
}
