package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/shapes"
)

// TestVisibilityMatchesPortalDefinition checks the walk-based visibility
// of propagation against Lemma 47's definition: an amoebot of B sees the
// x-portal P along the y-axis (z-axis) exactly when its y-portal (z-portal)
// of the region P ∪ B contains an amoebot of P. The oracle computes those
// portal decompositions with portal.Compute, on random hole-free blobs,
// for every x-portal and both sides.
func TestVisibilityMatchesPortalDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	checked := 0
	for trial := 0; trial < 25; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(300))
		region := amoebot.WholeRegion(s)
		xports := portal.Compute(region, amoebot.AxisX)
		for id := int32(0); id < int32(xports.Len()); id++ {
			pnodes := xports.NodesOf(id)
			inP := dense.NewBitSet(s.N())
			for _, p := range pnodes {
				inP.Add(p)
			}
			sides := splitSides(nil, region, inP)
			for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
				b := sides[side]
				if len(b) == 0 {
					continue
				}
				inB := dense.NewBitSet(s.N())
				for _, u := range b {
					inB.Add(u)
				}
				pb := amoebot.NewRegion(s, append(append([]int32(nil), pnodes...), b...))
				visY, visZ := visibility(nil, pb, pnodes, side)
				for _, axis := range []amoebot.Axis{amoebot.AxisY, amoebot.AxisZ} {
					vis := visY
					if axis == amoebot.AxisZ {
						vis = visZ
					}
					ports := portal.Compute(pb, axis)
					seesP := make([]bool, ports.Len())
					for _, p := range pnodes {
						seesP[ports.ID[p]] = true
					}
					for u := int32(0); u < int32(s.N()); u++ {
						want := inB.Has(u) && seesP[ports.ID[u]]
						if vis.Has(u) != want {
							t.Fatalf("trial %d, portal %d, side %d, %v-axis: node %d (in B: %v) walk says %v, portal definition %v",
								trial, id, side, axis, u, inB.Has(u), vis.Has(u), want)
						}
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no portal side was checked")
	}
}
