package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// TestPortalSidesMatchSearchOracle checks the split and the sides the
// forest algorithm propagates into without a search. The split must cover
// the structure, its regions may share only Q' portal amoebots, and each
// region's recorded run of a Q' portal must be exactly its amoebots on that
// portal. The sides are checked against splitSides, the depth-first search
// over region \ P that PropagateEnv keeps. A base case reads B as its
// region minus the portal run, on the side buildSplit recorded; phase 2 of
// a merge reads north \ P and south \ P. For every base region and each
// of its Q' portals, the search must put exactly that B on the recorded
// side and nothing on the other (both sides empty for a fused pure-segment
// region); for every phase-2 join, the search over north ∪ south ∪ P must
// find north \ P and south \ P. The joins come from replaying ForestEnv's
// merge schedule on the regions alone. Inputs are random hole-free blobs
// with 2–32 sources, and lines and combs, whose pure-segment regions fuse.
// Combs give regions meeting more than two Q' portals: Comb(8, 250) with
// the k = 4 sources of TestEnvelopeForestIndependentOfDiameter gives a
// 1,580-amoebot region meeting four.
func TestPortalSidesMatchSearchOracle(t *testing.T) {
	type input struct {
		name    string
		s       *amoebot.Structure
		sources []int32
	}
	rng := rand.New(rand.NewSource(52))
	var inputs []input
	for trial := 0; trial < 40; trial++ {
		s := shapes.RandomBlob(rng, 40+rng.Intn(500))
		k := min(2+rng.Intn(31), s.N())
		inputs = append(inputs, input{fmt.Sprintf("blob trial %d (n=%d, k=%d)", trial, s.N(), k), s, shapes.RandomSubset(rng, s, k)})
	}
	for _, k := range []int{2, 3, 5} {
		s := shapes.Line(24)
		inputs = append(inputs, input{fmt.Sprintf("line k=%d", k), s, shapes.RandomSubset(rng, s, k)})
	}
	inputs = append(inputs, input{"line of two", shapes.Line(2), []int32{0, 1}})
	for _, k := range []int{2, 4, 8, 16} {
		s := shapes.Comb(8, 6)
		inputs = append(inputs, input{fmt.Sprintf("comb k=%d", k), s, shapes.RandomSubset(rng, s, k)})
	}
	spine := shapes.Comb(6, 4)
	inputs = append(inputs, input{"comb spine sources", spine, []int32{0, 4, 10}})
	long := shapes.Comb(8, 250)
	inputs = append(inputs, input{"long comb k=4", long, shapes.RandomSubset(rand.New(rand.NewSource(13)), long, 4)})

	var regions, fused, joins, maxQP int
	for _, in := range inputs {
		region := amoebot.WholeRegion(in.s)
		sp, levels := replaySplit(region, in.sources, in.sources[0])
		checkSplit(t, in.name, sp)
		for ri, br := range sp.regions {
			maxQP = max(maxQP, len(br.qpPortals))
			for i, id := range br.qpPortals {
				pnodes := br.runs[i]
				label := fmt.Sprintf("%s: base region %d, Q' portal %d", in.name, ri, id)
				var want [amoebot.NumSides][]int32
				if side := br.sides[i]; side == noSide {
					fused++ // no body: the search must find nothing
				} else {
					want[side] = minusRun(br.nodes, pnodes)
				}
				checkSides(t, label, br.nodes, pnodes, want)
				regions++
			}
		}
		states := replayMerges(sp, levels, func(p int32, north, south *amoebot.Region) {
			pnodes := sp.ports.NodesOf(p)
			whole := north.Union(south).Union(amoebot.NewRegion(in.s, pnodes))
			label := fmt.Sprintf("%s: phase-2 join at portal %d", in.name, p)
			checkSides(t, label, whole, pnodes, [amoebot.NumSides][]int32{minusRun(north, pnodes), minusRun(south, pnodes)})
			joins++
		})
		if len(states) != 1 || states[0].Len() != region.Len() {
			t.Fatalf("%s: the replayed schedule left %d regions", in.name, len(states))
		}
	}
	if fused == 0 || joins == 0 || maxQP <= 2 {
		t.Fatalf("inputs reached %d fused pure-segment regions, %d phase-2 joins and at most %d Q' portals in a region; want both and more than two",
			fused, joins, maxQP)
	}
	t.Logf("%d (base region, Q' portal) pairs, %d of them fused, %d phase-2 joins; a region meets up to %d Q' portals",
		regions, fused, joins, maxQP)
}

// checkSplit checks the base regions themselves: together they cover the
// region, two of them share only Q' portal amoebots, and each recorded run
// is exactly the region's amoebots on that portal.
func checkSplit(t *testing.T, name string, sp *splitRegions) {
	t.Helper()
	ports := sp.ports
	holders := make([]int, ports.Region.Structure().N())
	for ri, br := range sp.regions {
		for _, u := range br.nodes.Nodes() {
			holders[u]++
			if holders[u] > 1 && !sp.inQP[ports.ID[u]] {
				t.Fatalf("%s: base region %d shares amoebot %d, which lies on no Q' portal", name, ri, u)
			}
		}
		for i, id := range br.qpPortals {
			on := br.nodes.Filter(func(u int32) bool { return ports.ID[u] == id })
			if !slices.Equal(on, br.runs[i]) {
				t.Fatalf("%s: base region %d holds %d amoebots of Q' portal %d, its run %d", name, ri, len(on), id, len(br.runs[i]))
			}
		}
	}
	for _, u := range ports.Region.Nodes() {
		if holders[u] == 0 {
			t.Fatalf("%s: amoebot %d lies in no base region", name, u)
		}
	}
}

// checkSides checks that splitSides over region, split at the portal run
// pnodes, finds on each side exactly the amoebots want lists there
// (ascending).
func checkSides(t *testing.T, label string, region *amoebot.Region, pnodes []int32, want [amoebot.NumSides][]int32) {
	t.Helper()
	s := region.Structure()
	found := splitSides(nil, region, portalRow(s, pnodes, nil))
	for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
		if !slices.Equal(want[side], slices.Sorted(slices.Values(found[side]))) {
			t.Fatalf("%s: side %d holds %d amoebots of B, the search finds %d there",
				label, side, len(want[side]), len(found[side]))
		}
	}
}

// minusRun returns body's amoebots off the portal run pnodes, ascending:
// B as propagation reads it.
func minusRun(body *amoebot.Region, pnodes []int32) []int32 {
	inP := portalRow(body.Structure(), pnodes, nil)
	return body.Filter(func(u int32) bool { return !inP.Has(u) })
}

// replaySplit repeats ForestEnv's §5.4.1 steps on a fresh decomposition:
// Q and Q', the split into base regions, and the centroid schedule's
// levels, deepest first.
func replaySplit(region *amoebot.Region, sources []int32, leader int32) (*splitRegions, [][]int32) {
	ports := portal.Compute(region, amoebot.AxisX)
	view := ports.WholeView()
	var clock sim.Clock
	sp := splitAtQPrime(&clock, nil, ports, view, sources, leader)
	rPrime := portal.ElectPortal(&clock, view, ports.ID[leader], sp.inQP)
	dec := portal.Decompose(&clock, view, rPrime, sp.inQP)
	maxDepth := 0
	for _, d := range dec.Depth {
		maxDepth = max(maxDepth, d)
	}
	levels := make([][]int32, maxDepth+1)
	for id := int32(0); id < int32(ports.Len()); id++ {
		if d := dec.Depth[id]; d >= 0 {
			levels[maxDepth-d] = append(levels[maxDepth-d], id)
		}
	}
	return sp, levels
}

// replayMerges walks the merge schedule as mergeAlongPortal and
// mergeTouching do, on the regions alone: the touching regions of each
// level's portal, their side classification, phase 1's parity pairing at
// the marks, and phase 2's join, reported to join with the north and the
// south region before they merge. It returns the final region list.
func replayMerges(sp *splitRegions, levels [][]int32, join func(p int32, north, south *amoebot.Region)) []*amoebot.Region {
	var states []*amoebot.Region
	for _, br := range sp.regions {
		states = append(states, br.nodes)
	}
	for _, level := range levels {
		for _, p := range level {
			pnodes := sp.ports.NodesOf(p)
			var touching, rest []*amoebot.Region
			for _, r := range states {
				if r.ContainsAny(pnodes) {
					touching = append(touching, r)
				} else {
					rest = append(rest, r)
				}
			}
			if len(touching) < 2 {
				continue
			}
			var bySide [amoebot.NumSides][]*amoebot.Region
			for _, r := range touching {
				side, ok := regionSideOf(r, pnodes)
				if !ok {
					side = amoebot.SideA
					if len(bySide[amoebot.SideA]) > len(bySide[amoebot.SideB]) {
						side = amoebot.SideB
					}
				}
				bySide[side] = append(bySide[side], r)
			}
			for side := range bySide {
				regions := bySide[side]
				active := sp.marksOf[p]
				for len(active) > 0 && len(regions) > 1 {
					var odd, even []int32
					for i, m := range active {
						if i%2 == 0 {
							odd = append(odd, m)
						} else {
							even = append(even, m)
						}
					}
					for _, m := range odd {
						var a, b *amoebot.Region
						for _, r := range regions {
							if r.Contains(m) {
								if a == nil {
									a = r
								} else if r != a {
									b = r
								}
							}
						}
						if a == nil || b == nil {
							continue
						}
						var next []*amoebot.Region
						for _, r := range regions {
							if r != a && r != b {
								next = append(next, r)
							}
						}
						regions = append(next, a.Union(b))
					}
					active = even
				}
				bySide[side] = regions
			}
			north, south := bySide[amoebot.SideA], bySide[amoebot.SideB]
			if len(north) > 1 || len(south) > 1 {
				panic("replay: more than one region on a side after phase 1")
			}
			var merged *amoebot.Region
			switch {
			case len(south) == 0:
				merged = north[0]
			case len(north) == 0:
				merged = south[0]
			default:
				join(p, north[0], south[0])
				merged = north[0].Union(south[0]).Union(amoebot.NewRegion(sp.ports.Region.Structure(), pnodes))
			}
			states = append(rest, merged)
		}
	}
	return states
}
