package core

import (
	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/portal"
)

// PortalSource supplies memoized portal decompositions. The engine
// implements it with its per-structure memo so that repeated queries (and
// the three axes of one SPT query) reuse one decomposition instead of
// recomputing it; portal.Compute is deterministic, so a cached result is
// indistinguishable from a fresh one. Implementations return (nil, nil)
// for regions they do not cache and must be safe for concurrent use.
type PortalSource interface {
	PortalsView(region *amoebot.Region, axis amoebot.Axis) (*portal.Portals, *portal.View)
}

// Env bundles the per-engine execution state threaded through the
// algorithms: the deterministic parallel executor (with its scratch arena)
// and an optional portal-decomposition memo. A nil *Env — and every
// omitted part — degrades to serial, compute-fresh, shared-arena
// execution, so internal code never branches.
type Env struct {
	ex  *par.Exec
	src PortalSource
}

// NewEnv returns an Env executing on ex and consulting src for memoized
// portal decompositions. Both may be nil.
func NewEnv(ex *par.Exec, src PortalSource) *Env { return &Env{ex: ex, src: src} }

// Exec returns the executor (nil-safe; a nil Env executes serially).
func (env *Env) Exec() *par.Exec {
	if env == nil {
		return nil
	}
	return env.ex
}

// Arena returns the scratch arena, falling back to the process-wide shared
// arena when the Env carries none.
func (env *Env) Arena() *dense.Arena {
	if a := env.Exec().Arena(); a != nil {
		return a
	}
	return dense.Shared
}

// portalsView returns the portal decomposition and whole view of the
// region along the axis: the memoized one when the source covers the
// region, a freshly computed one otherwise (fresh reports which).
func (env *Env) portalsView(region *amoebot.Region, axis amoebot.Axis) (p *portal.Portals, v *portal.View, fresh bool) {
	if env != nil && env.src != nil {
		if p, v := env.src.PortalsView(region, axis); p != nil && v != nil {
			return p, v, false
		}
	}
	p = portal.Compute(region, axis)
	return p, p.WholeView(), true
}

// axisInfo pairs one axis' decomposition with its whole view; fresh marks
// one computed for the call, which may release it, rather than memoized.
type axisInfo struct {
	ports *portal.Portals
	view  *portal.View
	fresh bool
}

// allAxes resolves the decompositions of all three axes, concurrently when
// the executor allows: the axes are independent read-only computations over
// the same region, so the fan-out is race-free and the per-axis results are
// identical to three serial calls.
func (env *Env) allAxes(region *amoebot.Region) [amoebot.NumAxes]axisInfo {
	var axes [amoebot.NumAxes]axisInfo
	env.Exec().For(int(amoebot.NumAxes), func(i int) {
		axis := amoebot.Axis(i)
		axes[axis].ports, axes[axis].view, axes[axis].fresh = env.portalsView(region, axis)
	})
	return axes
}
