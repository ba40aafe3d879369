package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/core"
	"spforest/internal/portal"
	"spforest/internal/scenario"
	"spforest/internal/sim"
)

// TestRegistryMatchesPackedOracle runs the three closed-form PASC call
// sites against their packed executions on inputs derived from every
// hole-free registry scenario: the line algorithm on every x-portal run,
// merges of the SPTs of the scenario's query sources, and propagation
// across both sides of every x-portal.
func TestRegistryMatchesPackedOracle(t *testing.T) {
	for _, sc := range scenario.HoleFree() {
		t.Run(sc.Name, func(t *testing.T) {
			s := sc.S
			r := amoebot.WholeRegion(s)
			rng := rand.New(rand.NewSource(int64(s.N())))
			ports := portal.Compute(r, amoebot.AxisX)
			for id := 0; id < ports.Len(); id++ {
				chain := ports.NodesOf(int32(id))
				for shape := 0; shape < 5; shape++ {
					sources := core.LineOracleSources(rng, chain, shape)
					core.CheckLineOracle(t, fmt.Sprintf("line portal %d shape %d", id, shape), s, chain, sources)
				}
				for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
					core.CheckPropagateOracleAt(t, fmt.Sprintf("propagate portal %d side %d", id, side), rng, s, id, 1+rng.Intn(4), side)
				}
			}
			var trees []*amoebot.Forest
			for _, set := range sc.SourceSets() {
				for _, c := range set {
					src, _ := s.Index(c)
					var build sim.Clock
					trees = append(trees, core.SPTEnv(nil, &build, r, src, r.Nodes()))
				}
			}
			acc := trees[0]
			for i, tree := range trees[1:] {
				label := fmt.Sprintf("merge %d", i)
				core.CheckMergeOracle(t, label, acc, tree)
				var clock sim.Clock
				acc = core.MergeEnv(nil, &clock, acc, tree)
			}
		})
	}
}
