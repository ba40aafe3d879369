package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spforest/amoebot"
	"spforest/internal/core"
	"spforest/internal/portal"
	"spforest/internal/sim"
)

// PortalInfo describes the memoized portal decomposition of the engine's
// structure along one axis (paper §2.2, Lemmas 9/11): which portal every
// amoebot belongs to and whether the portal graph is a tree (it always is
// for valid structures; the flag is exposed for inspection).
type PortalInfo struct {
	// Axis is the decomposition axis.
	Axis amoebot.Axis
	// Count is the number of portals.
	Count int
	// IsTree reports whether the portal graph is a tree (Lemma 9).
	IsTree bool
	// ID maps each node index to its portal id. The slice is shared across
	// callers and must not be modified.
	ID []int32
}

// inspectState holds the lazily built per-structure decompositions the
// engine memoizes alongside leader and distances. Portal decompositions are
// pure preprocessing — they depend only on the structure — so one
// computation serves every later call: engine inspection, every SPT
// query's three axes and every forest query's x-axis all share it. Each
// axis memoizes its decomposition together with its whole-structure view,
// which is only the decomposition's portal ids.
type inspectState struct {
	portalOnce [amoebot.NumAxes]sync.Once
	raw        [amoebot.NumAxes]*portal.Portals
	views      [amoebot.NumAxes]*portal.View

	// The PortalInfo summary is memoized separately from the raw
	// decomposition: its IsTree flag costs an extra O(n) pass that the
	// query path never needs, so only the Portals inspection API pays it.
	infoOnce [amoebot.NumAxes]sync.Once
	portals  [amoebot.NumAxes]*PortalInfo

	// portalBuilt is set after an axis' memo exists. Apply reads it on the
	// parent — without racing the onces — to decide per axis whether there
	// is anything to patch into the child.
	portalBuilt [amoebot.NumAxes]atomic.Bool
}

// set memoizes the axis' decomposition and its whole view. Callers run it
// inside the axis' portalOnce.
func (st *inspectState) set(axis amoebot.Axis, p *portal.Portals) {
	st.raw[axis], st.views[axis] = p, p.WholeView()
	st.portalBuilt[axis].Store(true)
}

// portalsFor returns the memoized decomposition along the axis and its
// whole view, computing them on first use. Distinct axes memoize
// independently, so concurrent first calls for different axes — the
// parallel fan-out of an SPT query's three axes — proceed in parallel
// instead of serializing on one lock.
func (e *Engine) portalsFor(axis amoebot.Axis) (*portal.Portals, *portal.View) {
	e.inspect.portalOnce[axis].Do(func() { e.inspect.set(axis, portal.Compute(e.region, axis)) })
	return e.inspect.raw[axis], e.inspect.views[axis]
}

// Warm forces the per-structure preprocessing that queries would otherwise
// pay lazily: the leader election plus the portal decomposition (with its
// whole view) of every axis. After Warm, a subsequent Apply can migrate
// every axis instead of leaving the child to rebuild.
func (e *Engine) Warm() {
	var clock sim.Clock
	e.leaderFor(&clock)
	for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
		e.portalsFor(axis)
	}
}

// enginePortalSource adapts the engine's portal memo to core.PortalSource:
// queries resolve whole-structure decompositions from the memo (paying the
// computation once per engine per axis) and fall back to fresh computation
// for the sub-regions the divide-and-conquer recursion produces.
type enginePortalSource Engine

func (src *enginePortalSource) PortalsView(region *amoebot.Region, axis amoebot.Axis) (*portal.Portals, *portal.View) {
	e := (*Engine)(src)
	if region != e.region {
		return nil, nil // sub-region: not memoized, core computes fresh
	}
	return e.portalsFor(axis)
}

// Portals returns the memoized portal decomposition along the given axis,
// computing it on first use.
func (e *Engine) Portals(axis amoebot.Axis) (*PortalInfo, error) {
	if axis < 0 || axis >= amoebot.NumAxes {
		return nil, fmt.Errorf("engine: invalid axis %d", axis)
	}
	p, _ := e.portalsFor(axis)
	e.inspect.infoOnce[axis].Do(func() {
		e.inspect.portals[axis] = &PortalInfo{
			Axis:   axis,
			Count:  p.Len(),
			IsTree: p.IsPortalGraphTree(),
			ID:     p.ID,
		}
	})
	return e.inspect.portals[axis], nil
}

// Decomposition exposes the §5.4.1 base-region split of the structure for
// a source set (the paper's Figure 15): the overlapping base regions the
// divide-and-conquer forest algorithm recurses on, and the still-marked
// connector amoebots.
type Decomposition struct {
	// Regions are the base regions, overlapping on portal segments.
	Regions []*amoebot.Region
	// Marks are the still-marked connector amoebots.
	Marks []int32
}

// BaseRegions computes the base-region decomposition the forest algorithm
// would use for the given sources, rooted at the engine's memoized leader
// (electing it on first need; the simulated cost is accounted exactly as
// by Engine.Leader). Like the forest algorithm, it requires a hole-free
// structure.
func (e *Engine) BaseRegions(sources []amoebot.Coord) (*Decomposition, error) {
	if e.holes > 0 {
		return nil, e.holeFreeErr(AlgoForest)
	}
	srcs, err := e.resolve(sources, "source")
	if err != nil {
		return nil, err
	}
	var clock sim.Clock
	info := core.SplitRegions(e.region, srcs, e.leaderFor(&clock))
	return &Decomposition{Regions: info.Regions, Marks: info.Marks}, nil
}
