package treeprim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/bitstream"
	"spforest/internal/ett"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/treeprim"
)

// TestElectPortalMatchesCircuitOracle checks portal.ElectPortal (Lemma 35)
// against the circuit-materialized election: the oracle runs on the view's
// implicit tree with the representatives of the Q portals marked, and
// ElectPortal must elect the oracle node's portal and charge the oracle's
// round and beep plus the announcement round (and its beep when a portal is
// elected). The views are connected random subtrees of the portal graph
// along every axis, down to single-amoebot views, and single portals of
// several amoebots. Q ranges over densities from the empty to the full set
// and over sets of one to three portals, the sizes production elects among
// (one or two centroid portals per Decompose subtree, a few Q' portals in
// the forest algorithm); with two or more Q portals the first amoebot of a
// Q portal on the tour need not be the first representative.
func TestElectPortalMatchesCircuitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	check := func(ctx string, v *portal.View, root int32, inQ []bool) {
		t.Helper()
		p := v.P
		it := newImplicitTree(v)
		var want, got sim.Clock
		wantID := int32(-1)
		if it.tree.Len() == 1 {
			want.Tick(2)
			if inQ[root] {
				wantID = root
			}
		} else {
			elected := treeprim.CircuitElect(&want, it.tree, it.local(p.Rep(root)), it.hatQ(v, inQ))
			want.Tick(1)
			if elected >= 0 {
				want.AddBeeps(1)
				wantID = p.ID[it.nodes[elected]]
			}
		}
		gotID := portal.ElectPortal(&got, v, root, inQ)
		if gotID != wantID || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
			t.Fatalf("%s: ElectPortal %d (%d rounds, %d beeps), oracle %d (%d rounds, %d beeps)",
				ctx, gotID, got.Rounds(), got.Beeps(), wantID, want.Rounds(), want.Beeps())
		}
	}
	for trial := 0; trial < 810; trial++ {
		s := shapes.RandomBlob(rng, 20+rng.Intn(200))
		axis := amoebot.Axis(trial % int(amoebot.NumAxes))
		p := portal.Compute(amoebot.WholeRegion(s), axis)
		for sub := 0; sub < 4; sub++ {
			ctx := fmt.Sprintf("trial %d/%d", trial, sub)
			v := randomView(rng, p)
			root := v.IDs[rng.Intn(len(v.IDs))]
			inQ := make([]bool, p.Len())
			if trial < 60 {
				density := []int{0, 15, 50, 100}[sub]
				for _, id := range v.IDs {
					inQ[id] = rng.Intn(100) < density
				}
			} else {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					inQ[v.IDs[rng.Intn(len(v.IDs))]] = true
				}
			}
			check(ctx, v, root, inQ)
		}
		// One portal of several amoebots: the tour runs along the portal.
		for id := int32(0); id < int32(p.Len()); id++ {
			if len(p.NodesOf(id)) > 1 {
				v := p.SubView([]int32{id})
				inQ := make([]bool, p.Len())
				check(fmt.Sprintf("trial %d portal %d", trial, id), v, id, inQ)
				inQ[id] = true
				check(fmt.Sprintf("trial %d portal %d in Q", trial, id), v, id, inQ)
				break
			}
		}
	}
}

// implicitTree is a view's implicit tree as the oracles see it: the tree
// over local indices and the view's amoebots by local index.
type implicitTree struct {
	tree  *ett.Tree
	nodes []int32
}

func newImplicitTree(v *portal.View) implicitTree {
	tree, nodes := v.ImplicitTree()
	return implicitTree{tree, nodes}
}

// local returns the local index of a structure node of the view.
func (it implicitTree) local(g int32) int32 {
	i, _ := slices.BinarySearch(it.nodes, g)
	return int32(i)
}

// hatQ returns the local-node mask marking the representatives of the
// view's Q portals (the set Q̂ of §3.5).
func (it implicitTree) hatQ(v *portal.View, inQ []bool) []bool {
	mask := make([]bool, len(it.nodes))
	for _, id := range v.IDs {
		mask[it.local(v.P.Rep(id))] = inQ[id]
	}
	return mask
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

// crossingRow is a directed crossing edge from → to of a view, operated by
// the connector c_from(to) at local index local through neighbor ordinal
// ord of the view's implicit tree.
type crossingRow struct {
	from, to, local int32
	ord             int
}

// crossingRows lists the view's directed crossing edges by (ascending
// portal, ascending neighbor).
func crossingRows(v *portal.View, it implicitTree) []crossingRow {
	p := v.P
	var rows []crossingRow
	for _, p1 := range v.IDs {
		for _, p2 := range p.Nbr[p1] {
			if !v.Contains(p2) {
				continue
			}
			lu, lw := it.local(p.Connector(p1, p2)), it.local(p.Connector(p2, p1))
			rows = append(rows, crossingRow{p1, p2, lu, slices.Index(it.tree.Neighbors[lu], lw)})
		}
	}
	return rows
}

// portalETT starts the ETT of the §3.5 primitives: the view's implicit tree
// rooted at the root portal's representative, with the representatives of
// the Q portals (the set Q̂) marked.
func portalETT(v *portal.View, it implicitTree, rootPortal int32, inQ []bool) *ett.Run {
	return ett.NewRun(ett.BuildTour(it.tree, it.local(v.P.Rep(rootPortal))), it.hatQ(v, inQ))
}

// ettRootPrune is the reference execution of Lemma 33: the ETT run bit by
// bit, one streaming subtractor per crossing row at its connector, then the
// V_Q round (one beep per nonzero difference) and the parent round (one
// beep per positive difference).
func ettRootPrune(clock *sim.Clock, v *portal.View, rootPortal int32, inQ []bool) *portal.RootPruneResult {
	res := &portal.RootPruneResult{InVQ: make([]bool, v.P.Len()), Parent: make([]int32, v.P.Len())}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	it := newImplicitTree(v)
	if it.tree.Len() == 1 {
		res.InVQ[rootPortal] = inQ[rootPortal]
		if inQ[rootPortal] {
			res.QSize = 1
		}
		return res
	}
	run := portalETT(v, it, rootPortal, inQ)
	rows := crossingRows(v, it)
	subs := make([]bitstream.Subtractor, len(rows))
	var total bitstream.Accumulator
	for !run.Done() {
		run.Step(clock)
		for i, r := range rows {
			subs[i].Feed(run.EdgeBits(r.local, r.ord))
		}
		total.Feed(run.TotalBit())
	}
	res.QSize = total.Value()
	res.InVQ[rootPortal] = res.QSize > 0
	beeps := int64(0)
	for i, r := range rows {
		if subs[i].NonZero() {
			res.InVQ[r.from] = true
			beeps++
		}
		if subs[i].Sign() == bitstream.Greater && r.from != rootPortal {
			res.Parent[r.from] = r.to
			beeps++
		}
	}
	clock.Tick(2)
	clock.AddBeeps(beeps)
	return res
}

// ettPortalCentroids is the reference execution of Lemma 36: the
// root-and-prune execution, a second ETT with the |Q| bit broadcast each
// iteration, streamed component sizes at the connectors of the Q portals
// compared against ⌊|Q|/2⌋, and the "cannot be a centroid" round.
func ettPortalCentroids(clock *sim.Clock, v *portal.View, rootPortal int32, inQ []bool) *portal.CentroidResult {
	res := &portal.CentroidResult{IsCentroid: make([]bool, v.P.Len())}
	res.RP = ettRootPrune(clock, v, rootPortal, inQ)
	it := newImplicitTree(v)
	if it.tree.Len() == 1 {
		res.IsCentroid[rootPortal] = inQ[rootPortal]
		return res
	}
	run := portalETT(v, it, rootPortal, inQ)
	type state struct {
		diff, size bitstream.Subtractor
		half       bitstream.HalfComparator
	}
	var rows []crossingRow
	for _, r := range crossingRows(v, it) {
		if inQ[r.from] {
			rows = append(rows, r)
		}
	}
	states := make([]state, len(rows))
	for !run.Done() {
		run.Step(clock)
		clock.Tick(1)
		clock.AddBeeps(1)
		qBit := run.TotalBit()
		for i, r := range rows {
			st := &states[i]
			out, in := run.EdgeBits(r.local, r.ord)
			var sizeBit uint8
			if r.to == res.RP.Parent[r.from] {
				sizeBit = st.size.Feed(qBit, st.diff.Feed(out, in))
			} else {
				sizeBit = st.diff.Feed(in, out)
			}
			st.half.Feed(sizeBit, qBit)
		}
	}
	for _, id := range v.IDs {
		res.IsCentroid[id] = inQ[id]
	}
	beeps := int64(0)
	for i, r := range rows {
		if states[i].half.Result() == bitstream.Greater {
			res.IsCentroid[r.from] = false
			beeps++
		}
	}
	clock.Tick(1)
	clock.AddBeeps(beeps)
	return res
}

// TestPortalPrimitivesMatchETTOracle property-tests portal.RootPrune and
// portal.Centroids against their streamed ETT executions on random blob
// views along every axis, down to single-amoebot views, with Q densities
// from the empty to the full set: the whole result structs, the rounds and
// the beeps must match.
func TestPortalPrimitivesMatchETTOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	for trial := 0; trial < 60; trial++ {
		s := shapes.RandomBlob(rng, 1+rng.Intn(200))
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
			wrp, grp := ettRootPrune(&want, v, root, inQ), portal.RootPrune(&got, v, root, inQ)
			if !reflect.DeepEqual(grp, wrp) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
				t.Fatalf("trial %d/%d: RootPrune %+v (%d rounds, %d beeps), oracle %+v (%d rounds, %d beeps)",
					trial, sub, grp, got.Rounds(), got.Beeps(), wrp, want.Rounds(), want.Beeps())
			}
			want, got = sim.Clock{}, sim.Clock{}
			wc, gc := ettPortalCentroids(&want, v, root, inQ), portal.Centroids(&got, v, root, inQ)
			if !reflect.DeepEqual(gc, wc) || got.Rounds() != want.Rounds() || got.Beeps() != want.Beeps() {
				t.Fatalf("trial %d/%d: Centroids %v (%d rounds, %d beeps), oracle %v (%d rounds, %d beeps)",
					trial, sub, gc.IsCentroid, got.Rounds(), got.Beeps(), wc.IsCentroid, want.Rounds(), want.Beeps())
			}
		}
	}
}
