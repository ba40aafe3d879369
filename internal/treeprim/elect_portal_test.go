package treeprim_test

import (
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
)

// TestElectPortalMatchesCircuitOracle checks portal.ElectPortal (Lemma 35)
// against the circuit-materialized election on random blob views: the
// oracle runs on the view's implicit tree with the representatives of the
// Q portals marked, and ElectPortal must elect the oracle node's portal and
// charge the oracle's round and beep plus the announcement round (and its
// beep when a portal is elected). The views are connected random subtrees
// of the portal graph along every axis, down to single-amoebot views.
func TestElectPortalMatchesCircuitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 60; trial++ {
		s := shapes.RandomBlob(rng, 20+rng.Intn(200))
		axis := amoebot.Axis(trial % int(amoebot.NumAxes))
		p := portal.Compute(amoebot.WholeRegion(s), axis)
		for sub := 0; sub < 4; sub++ {
			v := randomView(rng, p)
			root := v.IDs[rng.Intn(len(v.IDs))]
			inQ := make([]bool, p.Len())
			density := []int{0, 15, 50, 100}[sub]
			for _, id := range v.IDs {
				inQ[id] = rng.Intn(100) < density
			}
			var want, got sim.Clock
			wantID := int32(-1)
			if len(v.Nodes()) == 1 {
				want.Tick(2)
				if inQ[root] {
					wantID = root
				}
			} else {
				mask := make([]bool, len(v.Nodes()))
				for _, id := range v.IDs {
					mask[v.Local(p.Rep(id))] = inQ[id]
				}
				elected := treeprim.CircuitElect(&want, v.Tree(), v.Local(p.Rep(root)), mask)
				want.Tick(1)
				if elected >= 0 {
					want.AddBeeps(1)
					wantID = p.ID[v.Global(elected)]
				}
			}
			gotID := portal.ElectPortal(&got, v, root, inQ)
			if gotID != wantID || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
				t.Fatalf("trial %d/%d: ElectPortal %d (%d rounds, %d beeps), oracle %d (%d rounds, %d beeps)",
					trial, sub, gotID, got.Rounds(), got.Beeps(), wantID, want.Rounds(), want.Beeps())
			}
		}
	}
}

// randomView returns the view of a random connected set of portals, grown
// from a random portal over the portal graph.
func randomView(rng *rand.Rand, p *portal.Portals) *portal.View {
	start := int32(rng.Intn(p.Len()))
	limit := 1 + rng.Intn(p.Len())
	seen := map[int32]bool{start: true}
	ids := []int32{start}
	frontier := []int32{start}
	for len(frontier) > 0 && len(ids) < limit {
		i := rng.Intn(len(frontier))
		u := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		for _, w := range p.Nbr[u] {
			if !seen[w] && len(ids) < limit {
				seen[w] = true
				ids = append(ids, w)
				frontier = append(frontier, w)
			}
		}
	}
	return p.SubView(ids)
}
