package portal

import (
	"fmt"
	"math/rand"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// firstOnTourByAmoebots is the reference for firstOnTour: it walks the
// canonical Euler tour of the view's implicit tree (ett.BuildTour's rule)
// amoebot by amoebot from the root portal's representative without building
// the tree: the walk leaves the root along its first tree edge
// counterclockwise from E, and on each arrival takes the next tree edge
// counterclockwise after the one it came in on. It returns the portal of
// the first amoebot that represents a Q portal, or -1 once the walk is
// back at the root about to leave along its first edge again (the
// successor map on directed edges is a permutation, so it always gets
// there). The walk costs the tour prefix it covers.
func firstOnTourByAmoebots(v *View, rootPortal int32, inQ []bool) int32 {
	if inQ[rootPortal] {
		return rootPortal // the root is the representative of its portal
	}
	p := v.P
	root := p.Rep(rootPortal)
	// next returns u's first tree edge counterclockwise after direction d.
	next := func(u int32, d amoebot.Direction) amoebot.Direction {
		for i := amoebot.Direction(1); i < amoebot.NumDirections; i++ {
			if e := (d + i) % amoebot.NumDirections; v.treeEdge(u, e) {
				return e
			}
		}
		return d // no other tree edge: a leaf leaves the way it came
	}
	first := next(root, amoebot.NumDirections-1)
	for u, d := root, first; ; {
		w := p.Region.Neighbor(u, d)
		if id := p.ID[w]; inQ[id] && p.Rep(id) == w {
			return id
		}
		u, d = w, next(w, d.Opposite())
		if u == root && d == first {
			return -1
		}
	}
}

// electPortalByAmoebots is ElectPortal with the amoebot walk in place of
// the portal-tree walk: the same charges around the reference.
func electPortalByAmoebots(clock *sim.Clock, v *View, rootPortal int32, inQ []bool) int32 {
	if v.singleAmoebot() {
		clock.Tick(2)
		if inQ[rootPortal] {
			return rootPortal
		}
		return -1
	}
	clock.Tick(1)
	clock.AddBeeps(1)
	elected := firstOnTourByAmoebots(v, rootPortal, inQ)
	clock.Tick(1)
	if elected < 0 {
		return -1
	}
	clock.AddBeeps(1)
	return elected
}

// connectedView returns the view of a random connected set of portals,
// grown from a random portal over the portal graph.
func connectedView(rng *rand.Rand, p *Portals) *View {
	start := int32(rng.Intn(p.Len()))
	limit := 1 + rng.Intn(p.Len())
	seen := map[int32]bool{start: true}
	ids := []int32{start}
	frontier := []int32{start}
	for len(frontier) > 0 && len(ids) < limit {
		i := rng.Intn(len(frontier))
		u := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
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

// diagonal returns n amoebots in a line along the y axis (NE steps).
func diagonal(n int) *amoebot.Structure {
	cs := make([]amoebot.Coord, n)
	for i := range cs {
		cs[i] = amoebot.XZ(i, -i)
	}
	return amoebot.MustStructure(cs)
}

// TestElectPortalMatchesTourWalkOracle checks ElectPortal's portal-tree
// walk against the amoebot-by-amoebot tour walk at the scale the forest
// algorithm elects on: the 16k blob of the forest benchmark, a comb with
// long teeth, a hexagon, all on every axis, and a 3,000-amoebot line on
// the y and z axes, whose portal tree is a path of single-amoebot portals
// (a deep walk; likewise a NE diagonal on x and z), and small random blobs, whose few-amoebot portals meet
// neighbours at every slot. Views are whole and random connected sub-views, roots are
// seeded (every third one a one-amoebot portal where the view has one), Q
// sets hold zero to three portals or a dense share of the view; the
// elected portal, the rounds and the beeps must match.
func TestElectPortalMatchesTourWalkOracle(t *testing.T) {
	type input struct {
		name string
		s    *amoebot.Structure
		axes []amoebot.Axis
	}
	all := []amoebot.Axis{amoebot.AxisX, amoebot.AxisY, amoebot.AxisZ}
	inputs := []input{
		{"blob(1,16000)", shapes.RandomBlob(rand.New(rand.NewSource(1)), 16000), all},
		{"comb(8,250)", shapes.Comb(8, 250), all},
		{"hexagon(40)", shapes.Hexagon(40), all},
		{"line(3000)", shapes.Line(3000), []amoebot.Axis{amoebot.AxisY, amoebot.AxisZ}},
		{"diagonal(3000)", diagonal(3000), []amoebot.Axis{amoebot.AxisX, amoebot.AxisZ}},
	}
	rng := rand.New(rand.NewSource(241))
	for i := 0; i < 24; i++ {
		// Small blobs: forks of few-amoebot portals on every side.
		inputs = append(inputs, input{fmt.Sprintf("small blob %d", i), shapes.RandomBlob(rng, 20+rng.Intn(200)), all})
	}
	views, elected := 0, 0
	for _, in := range inputs {
		for _, axis := range in.axes {
			p := Compute(amoebot.WholeRegion(in.s), axis)
			for trial := 0; trial < 80; trial++ {
				v := p.WholeView()
				if trial%2 == 1 {
					v = connectedView(rng, p)
				}
				root := v.IDs[rng.Intn(len(v.IDs))]
				if trial%3 == 2 {
					// A one-amoebot root portal starts its cycle on side A.
					var single []int32
					for _, id := range v.IDs {
						if len(p.NodesOf(id)) == 1 {
							single = append(single, id)
						}
					}
					if len(single) > 0 {
						root = single[rng.Intn(len(single))]
					}
				}
				inQ := make([]bool, p.Len())
				if trial%8 >= 6 {
					density := 1 + rng.Intn(30) // percent of the view
					for _, id := range v.IDs {
						inQ[id] = rng.Intn(100) < density
					}
				} else {
					for k := trial % 4; k > 0; k-- {
						inQ[v.IDs[rng.Intn(len(v.IDs))]] = true
					}
				}
				ctx := fmt.Sprintf("%s axis %v trial %d (%d of %d portals, root %d)",
					in.name, axis, trial, len(v.IDs), p.Len(), root)
				var want, got sim.Clock
				wantID := electPortalByAmoebots(&want, v, root, inQ)
				gotID := ElectPortal(&got, v, root, inQ)
				if gotID != wantID || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
					t.Fatalf("%s: ElectPortal %d (%d rounds, %d beeps), tour walk %d (%d rounds, %d beeps)",
						ctx, gotID, got.Rounds(), got.Beeps(), wantID, want.Rounds(), want.Beeps())
				}
				views++
				if gotID >= 0 {
					elected++
				}
			}
		}
	}
	t.Logf("%d views, %d with an elected portal", views, elected)
}
