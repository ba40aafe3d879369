package main

import (
	"fmt"
	"time"

	"spforest/amoebot"
	"spforest/engine"
	"spforest/internal/baseline"
	"spforest/internal/core"
	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/pasc"
	"spforest/internal/portal"
	"spforest/internal/scenario"
	"spforest/internal/sim"
)

// probeRounds is how often the probe suite repeats; each probe metric is the
// median of its rounds.
const probeRounds = 3

// probeInput are the seeded inputs of the layer probes.
type probeInput struct {
	sources []amoebot.Coord // k = 16 sources for the forest-phase probes
	spt     engine.Query    // a single-source query for the engine.spt_solo probe
}

// probePortals hands the probe's own portal decompositions to the core
// algorithms, the way the engine hands them its memo.
type probePortals struct {
	region *amoebot.Region
	ports  [amoebot.NumAxes]*portal.Portals
	views  [amoebot.NumAxes]*portal.View
}

func (p *probePortals) PortalsView(region *amoebot.Region, axis amoebot.Axis) (*portal.Portals, *portal.View) {
	if region != p.region {
		return nil, nil
	}
	return p.ports[axis], p.views[axis]
}

// probeLayers times single calls into each layer's public entry points on the
// workload's structure, after the timed operations, so a regression in a
// layer shows under that layer's name. withApply adds the Structure.Apply and
// Engine.Apply probes for workloads whose operations do not apply deltas.
func (r *run) probeLayers(e *engine.Engine, in probeInput, withApply bool) error {
	s, region := e.Structure(), e.Region()
	ldrC, _ := e.Leader()
	ldr, _ := s.Index(ldrC)
	src := make([]int32, len(in.sources))
	for i, c := range in.sources {
		var ok bool
		if src[i], ok = s.Index(c); !ok {
			return fmt.Errorf("probe source %v is not in the structure", c)
		}
	}
	ex := par.New(procs, dense.NewArena())
	for round := 0; round < probeRounds; round++ {
		pp := &probePortals{region: region}
		var computeX time.Duration
		r.rec.time(-1, "portal.compute", root, func() {
			for a := amoebot.Axis(0); a < amoebot.NumAxes; a++ {
				start := time.Now()
				pp.ports[a] = portal.Compute(region, a)
				if a == amoebot.AxisX {
					computeX = time.Since(start)
				}
			}
		})
		r.rec.time(-1, "portal.view", root, func() {
			for a := amoebot.Axis(0); a < amoebot.NumAxes; a++ {
				pp.views[a] = pp.ports[a].WholeView()
			}
		})

		// §5.4.1: base regions. SplitRegions computes its own x-axis portals;
		// core.split_ms is the rest.
		var split *core.SplitInfo
		d := r.rec.time(-1, "core.SplitRegions", root, func() { split = core.SplitRegions(region, src, ldr) })
		r.rec.add("core.split_ms", ms(d-computeX))
		r.rec.add("core.base_regions", float64(len(split.Regions)))

		// Root-and-prune at the leader's portal, then the Q'-centroid
		// decomposition whose depth is the number of merge levels.
		px, vx := pp.ports[amoebot.AxisX], pp.views[amoebot.AxisX]
		inQ := make([]bool, px.Len())
		for _, u := range src {
			inQ[px.ID[u]] = true
		}
		var clock sim.Clock
		var rp *portal.RootPruneResult
		r.rec.time(-1, "portal.rootprune", root, func() { rp = portal.RootPrune(&clock, vx, px.ID[ldr], inQ) })
		r.rec.add("portal.rootprune_rounds", float64(clock.Rounds()))
		aq := portal.Augment(&clock, vx, rp)
		inQP := make([]bool, px.Len())
		for id := range inQP {
			inQP[id] = inQ[id] || aq[id]
		}
		rPrime := portal.ElectPortal(&clock, vx, px.ID[ldr], inQP)
		var dec *portal.DecompResult
		r.rec.time(-1, "portal.decompose", root, func() { dec = portal.Decompose(&clock, vx, rPrime, inQP) })
		levels := 0
		for _, depth := range dec.Depth {
			levels = max(levels, depth+1)
		}
		r.rec.add("portal.merge_levels", float64(levels))

		// Theorem 39 SPTs from two sources over every amoebot, their merge
		// (Lemma 42), and a tree PASC (Corollary 5) over the first.
		env := core.NewEnv(ex, pp)
		var sptClock, mergeClock, pascClock sim.Clock
		var f0 *amoebot.Forest
		r.rec.time(-1, "core.spt", root, func() { f0 = core.SPTEnv(env, &sptClock, region, src[0], region.Nodes()) })
		r.rec.add("core.spt_rounds", float64(sptClock.Rounds()))
		f1 := core.SPTEnv(env, &sim.Clock{}, region, src[1], region.Nodes())
		r.rec.time(-1, "core.merge", root, func() { core.MergeEnv(env, &mergeClock, f0, f1) })
		r.rec.add("core.merge_rounds", float64(mergeClock.Rounds()))
		parent := make([]int32, s.N())
		for i := range parent {
			parent[i] = f0.Parent(int32(i))
		}
		var pr *pasc.Run
		r.rec.time(-1, "pasc.tree", root, func() {
			pr = pasc.NewTreeDistance(parent)
			pasc.Collect(&pascClock, pr)
		})
		r.rec.add("pasc.iterations", float64(pr.Iterations()))

		// Baselines: one multi-source BFS, eight single-source BFS waves
		// packed into one MS-BFS sweep, and the exact reference distances.
		r.rec.time(-1, "baseline.bfs", root, func() { baseline.BFSForestExec(ex, &sim.Clock{}, region, src) })
		sets := make([][]int32, 8)
		clocks := make([]*sim.Clock, len(sets))
		for i := range sets {
			sets[i], clocks[i] = src[i:i+1], &sim.Clock{}
		}
		r.rec.time(-1, "baseline.msbfs", root, func() { baseline.BFSForestMany(clocks, region, sets) })
		r.rec.time(-1, "baseline.exact", root, func() { baseline.ExactExec(ex, region, src) })

		var err error
		r.rec.time(-1, "engine.spt_solo", root, func() { _, err = e.Run(in.spt) })
		if err != nil {
			return fmt.Errorf("spt probe: %w", err)
		}
	}
	if withApply {
		return r.probeApply(e, ldrC)
	}
	return nil
}

// probeApply times Structure.Apply and Engine.Apply on a short seeded
// translate-front churn chain from the workload's engine.
func (r *run) probeApply(e *engine.Engine, leader amoebot.Coord) error {
	churn := scenario.Workloads()["translate"]
	churn.Seed += r.seed
	churn.Steps = 1 << 30
	steps, err := churn.Stepper(e.Structure(), leader)
	if err != nil {
		return err
	}
	for done := 0; done < probeRounds; {
		d, _, _, err := steps.Next()
		if err != nil {
			return err
		}
		if d.IsEmpty() {
			continue
		}
		done++
		prev := e.Structure()
		r.rec.time(-1, "amoebot.apply", root, func() { _, err = prev.Apply(d) })
		r.rec.add("amoebot.delta_cells", float64(d.Size()))
		if err == nil {
			r.rec.time(-1, "engine.apply", root, func() { e, err = e.Apply(d) })
		}
		if err != nil {
			return fmt.Errorf("apply probe: %w", err)
		}
	}
	return nil
}
