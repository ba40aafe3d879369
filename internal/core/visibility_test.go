package core

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// portalVisibility returns the amoebots of B that see the x-portal run P
// along the y-axis and along the z-axis by Lemma 47's definition: those
// whose y-portal (z-portal) of the region P ∪ B contains an amoebot of P,
// read off portal.Compute's decompositions of P ∪ B.
func portalVisibility(s *amoebot.Structure, pnodes, bNodes []int32) (visY, visZ *dense.BitSet) {
	pb := amoebot.NewRegion(s, append(append([]int32(nil), pnodes...), bNodes...))
	vis := [amoebot.NumAxes]*dense.BitSet{}
	for _, axis := range []amoebot.Axis{amoebot.AxisY, amoebot.AxisZ} {
		ports := portal.Compute(pb, axis)
		seesP := make([]bool, ports.Len())
		for _, p := range pnodes {
			seesP[ports.ID[p]] = true
		}
		vis[axis] = dense.NewBitSet(s.N())
		for _, u := range bNodes {
			if seesP[ports.ID[u]] {
				vis[axis].Add(u)
			}
		}
	}
	return vis[amoebot.AxisY], vis[amoebot.AxisZ]
}

// TestVisibilityMatchesPortalDefinition checks the visibility that
// propagation's phase-1 pass (visiblePass) computes against Lemma 47's
// definition: an amoebot of B sees the x-portal P along the y-axis
// (z-axis) exactly when its y-portal (z-portal) of the region P ∪ B
// contains an amoebot of P. The oracle computes those portal
// decompositions with portal.Compute, on random hole-free blobs, for every
// x-portal and both sides. The pass runs on a line forest over P, whose
// labels its both-visible amoebots compare.
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
				f, label := amoebot.NewForest(s), make([]int32, s.N())
				var clock sim.Clock
				lineForest(nil, &clock, s, pnodes, pnodes[:1], f, label)
				visY, visZ := dense.NewBitSet(s.N()), dense.NewBitSet(s.N())
				visiblePass(pb, pnodes, f, label, side, visY, visZ)
				wantY, wantZ := portalVisibility(s, pnodes, b)
				for _, axis := range []amoebot.Axis{amoebot.AxisY, amoebot.AxisZ} {
					vis, want := visY, wantY
					if axis == amoebot.AxisZ {
						vis, want = visZ, wantZ
					}
					for u := int32(0); u < int32(s.N()); u++ {
						if vis.Has(u) != want.Has(u) {
							t.Fatalf("trial %d, portal %d, side %d, %v-axis: node %d (in B: %v) pass says %v, portal definition %v",
								trial, id, side, axis, u, inB.Has(u), vis.Has(u), want.Has(u))
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
