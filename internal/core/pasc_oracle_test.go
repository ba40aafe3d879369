package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spforest/amoebot"
	"spforest/internal/bitstream"
	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
	"spforest/internal/wave"
)

// The three PASC call sites of this package — the line algorithm, merging
// and propagation — evaluate their executions in closed form (DESIGN.md
// §2). This file keeps the bit-level executions they replaced, unchanged
// but for the removed wave counters: the distance waves run as lanes of a
// wave.Packed, and every deciding amoebot feeds an LSB-first bitstream
// comparator iteration by iteration. The Oracle tests require forests,
// rounds and beeps of both to match.

// oracleChunk is the chunk size the packed executions' per-slot sweeps fan
// out in (par.Exec.ForChunks); every slot writes only its own state.
const oracleChunk = 64

// linePacked is LineForestEnv as a packed execution: the east and west
// runs as two lanes of one wave.Packed, each slot feeding its comparator.
func linePacked(env *Env, clock *sim.Clock, s *amoebot.Structure, chain []int32, sources []int32) *amoebot.Forest {
	ar := env.Arena()
	n := len(chain)
	f := amoebot.NewForest(s)
	if n == 0 {
		return f
	}
	isSource := ar.Bools(n)
	defer ar.PutBools(isSource)
	pos := ar.Index(s.N())
	defer ar.PutIndex(pos)
	for i, g := range chain {
		pos.Set(g, int32(i))
	}
	for _, src := range sources {
		i, ok := pos.Get(src)
		if !ok {
			panic("core: line source outside chain")
		}
		isSource[i] = true
	}
	if len(sources) == 0 {
		return f
	}

	// One beep round per direction on the chain circuit cut at sources:
	// every amoebot learns whether a source exists on its west/east side.
	hasWest := ar.Bools(n)
	defer ar.PutBools(hasWest)
	hasEast := ar.Bools(n)
	defer ar.PutBools(hasEast)
	{
		seen := false
		for i := 0; i < n; i++ {
			hasWest[i] = seen
			if isSource[i] {
				seen = true
			}
		}
		seen = false
		for i := n - 1; i >= 0; i-- {
			hasEast[i] = seen
			if isSource[i] {
				seen = true
			}
		}
		clock.Tick(2)
		clock.AddBeeps(2 * int64(len(sources)))
	}

	// Eastward run: every source is a root; slot i's value is the distance
	// to the nearest source on its west. Westward run symmetric.
	parentE := ar.Int32s(n)
	parentW := ar.Int32s(n)
	for i := 0; i < n; i++ {
		if isSource[i] {
			parentE[i], parentW[i] = -1, -1
			continue
		}
		parentE[i] = int32(i) - 1 // may be -1 at the chain start: acts as a dummy root
		parentW[i] = int32(i) + 1
		if parentW[i] == int32(n) {
			parentW[i] = -1
		}
	}
	// cmps[i] is slot i's byte-encoded O(1)-state comparator.
	cmps := ar.Bytes(n)
	defer ar.PutBytes(cmps)
	ex := env.Exec()
	feed := func(bitsE, bitsW []uint8) {
		ex.ForChunks(n, oracleChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch {
				case !hasWest[i] && !hasEast[i]:
					continue
				case !hasWest[i]:
					cmps[i] = bitstream.CmpFeed(cmps[i], 1, 0) // west side invalid: force the east side
				case !hasEast[i]:
					cmps[i] = bitstream.CmpFeed(cmps[i], 0, 1) // east side invalid: force the west side
				default:
					cmps[i] = bitstream.CmpFeed(cmps[i], bitsE[i], bitsW[i])
				}
			}
		})
	}
	p := wave.NewPacked(ar)
	p.AddLane(parentE, nil)
	p.AddLane(parentW, nil)
	p.Seal()
	ar.PutInt32s(parentE)
	ar.PutInt32s(parentW)
	for !p.AllDone() {
		p.StepRound(clock)
		feed(p.Bits(0), p.Bits(1))
	}
	p.Release()
	ex.ForChunks(n, oracleChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := chain[i]
			if isSource[i] {
				f.SetRoot(g)
				continue
			}
			switch {
			case !hasWest[i] && !hasEast[i]:
				continue // no source on the chain at all (empty S was rejected above)
			case hasWest[i] && (!hasEast[i] || bitstream.CmpOrdering(cmps[i]) != bitstream.Greater):
				f.SetParent(g, chain[i-1]) // west distance ≤ east distance
			default:
				f.SetParent(g, chain[i+1])
			}
		}
	})
	return f
}

// mergePacked is MergeEnv as a packed execution: the two tree-distance
// waves as two lanes of one wave.Packed stepped to completion on the
// merge's clock, feeding every doubly covered amoebot's comparator.
func mergePacked(env *Env, clock *sim.Clock, f1, f2 *amoebot.Forest) *amoebot.Forest {
	switch {
	case f2.Structure() != f1.Structure():
		panic("core: merging forests of different structures")
	case f1.Size() == 0:
		return f2.Clone()
	case f2.Size() == 0:
		return f1.Clone()
	}
	ar := env.Arena()
	members1, members2 := f1.Members(), f2.Members()
	parent1, local1 := forestLaneParent(f1, members1, ar)
	parent2, local2 := forestLaneParent(f2, members2, ar)
	p := wave.NewPacked(ar)
	p.AddLane(parent1, nil)
	p.AddLane(parent2, nil)
	p.Seal()
	ar.PutInt32s(parent1)
	ar.PutInt32s(parent2)
	mc := newMergeCmps(f1, f2, members1, ar)
	ex := env.Exec()
	for !p.AllDone() {
		p.StepRound(clock)
		mc.feed(ex, local1, local2, p.Bits(0), p.Bits(1))
	}
	p.Release()
	out := mc.assemble(f1, f2, members1, members2)
	mc.release(ar)
	ar.PutIndex(local1)
	ar.PutIndex(local2)
	return out
}

type mergeCmps struct {
	cmpOf  *dense.Index
	both   []int32
	states []uint8
}

// newMergeCmps pairs the members of f1 (members1) that f2 covers too.
func newMergeCmps(f1, f2 *amoebot.Forest, members1 []int32, ar *dense.Arena) *mergeCmps {
	mc := &mergeCmps{cmpOf: ar.Index(f1.Structure().N())}
	for _, g := range members1 {
		if f2.Member(g) {
			mc.cmpOf.Set(g, int32(len(mc.both)))
			mc.both = append(mc.both, g)
		}
	}
	mc.states = ar.Bytes(len(mc.both))
	return mc
}

func (mc *mergeCmps) release(ar *dense.Arena) {
	ar.PutIndex(mc.cmpOf)
	ar.PutBytes(mc.states)
}

// feed consumes one joint iteration's distance bits: every doubly-covered
// amoebot advances its comparator with its two streamed bits. Chunks write
// disjoint comparator slots, so the fan-out is race-free and
// order-independent.
func (mc *mergeCmps) feed(ex *par.Exec, local1, local2 *dense.Index, b1, b2 []uint8) {
	ex.ForChunks(len(mc.both), oracleChunk, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			g := mc.both[ci]
			mc.states[ci] = bitstream.CmpFeed(mc.states[ci], b1[local1.At(g)], b2[local2.At(g)])
		}
	})
}

// assemble builds the merged forest from the settled comparators (Lemma 41;
// ties towards f1); members1 and members2 are the forests' member lists.
func (mc *mergeCmps) assemble(f1, f2 *amoebot.Forest, members1, members2 []int32) *amoebot.Forest {
	out := amoebot.NewForest(f1.Structure())
	for _, g := range members1 {
		if ci := mc.cmpOf.At(g); ci >= 0 && bitstream.CmpOrdering(mc.states[ci]) == bitstream.Greater {
			continue // f2 strictly nearer: handled below
		}
		if p := f1.Parent(g); p != amoebot.None {
			out.SetParent(g, p)
		} else {
			out.SetRoot(g)
		}
	}
	for _, g := range members2 {
		if ci := mc.cmpOf.At(g); ci >= 0 && bitstream.CmpOrdering(mc.states[ci]) != bitstream.Greater {
			continue // f1 at most as far: already placed
		}
		if p := f2.Parent(g); p != amoebot.None {
			out.SetParent(g, p)
		} else {
			out.SetRoot(g)
		}
	}
	return out
}

// forestLaneParent builds the local parent column of f over its members:
// the lane spec of a multi-root tree-distance PASC wave, where slot i is
// members[i], the roots are the forest roots, and each member's streamed
// value is its tree depth = dist(S, ·). The caller releases the column with
// ar.PutInt32s (after Seal) and the index with ar.PutIndex.
func forestLaneParent(f *amoebot.Forest, members []int32, ar *dense.Arena) ([]int32, *dense.Index) {
	toLocal := ar.Index(f.Structure().N())
	for li, g := range members {
		toLocal.Set(g, int32(li))
	}
	parent := ar.Int32s(len(members))
	for li, g := range members {
		if p := f.Parent(g); p != amoebot.None {
			lp, ok := toLocal.Get(p)
			if !ok {
				panic(fmt.Sprintf("core: member %d has parent outside member set", g))
			}
			parent[li] = lp
		} else {
			parent[li] = -1
		}
	}
	return parent, toLocal
}

// propagatePackedEnv is PropagateEnv over propagatePacked.
func propagatePackedEnv(env *Env, clock *sim.Clock, region *amoebot.Region, pnodes []int32, f *amoebot.Forest, into amoebot.Side) *amoebot.Forest {
	if f.Size() == 0 {
		return f.Clone()
	}
	ar := env.Arena()
	inP := portalRow(region.Structure(), pnodes, ar)
	defer ar.PutBitSet(inP)
	return propagatePacked(env, clock, region, pnodes, inP, splitSides(ar, region, inP)[into], f, into)
}

// propagatePacked is propagate as a packed execution: phase 1's
// tree-distance wave on f as a one-lane wave.Packed, each both-visible
// amoebot's comparator fed with its two projections' bits.
func propagatePacked(env *Env, clock *sim.Clock, region *amoebot.Region, pnodes []int32, inP *dense.BitSet, bNodes []int32, f *amoebot.Forest, into amoebot.Side) *amoebot.Forest {
	if len(bNodes) == 0 || f.Size() == 0 {
		return f.Clone()
	}
	ar := env.Arena()
	s := region.Structure()
	zP := s.Coord(pnodes[0]).Z
	out := f.Clone()
	towardY, towardZ := towardPortal(into)

	// Phase 1: visibility via the y-/z-portals of P ∪ B (one beep round).
	visY, visZ := portalVisibility(s, pnodes, bNodes)
	clock.Tick(1)
	clock.AddBeeps(2 * int64(len(pnodes)))

	var bothVisible []int32
	for _, u := range bNodes {
		switch vy, vz := visY.Has(u), visZ.Has(u); {
		case vy && vz:
			bothVisible = append(bothVisible, u)
		case vy:
			out.SetParent(u, mustNeighbor(region, u, towardY))
		case vz:
			out.SetParent(u, mustNeighbor(region, u, towardZ))
		}
	}
	visible := visY // B': visible along either axis
	visible.Or(visZ)

	// Both-visible amoebots compare the streamed distances of their two
	// projections onto P (tree-PASC on f; the P-amoebots forward their bits
	// on the portal circuits in the same cadence).
	if len(bothVisible) > 0 {
		// One tree-distance wave over all members of f: slot i is members[i],
		// the roots are the forest roots, so each member streams its tree
		// depth = dist(S, ·).
		parent, toLocal := forestLaneParent(f, f.Members(), ar)
		run := wave.NewPacked(ar)
		run.AddLane(parent, nil)
		run.Seal()
		ar.PutInt32s(parent)
		type probe struct {
			u            int32
			projY, projZ int32
			cmp          bitstream.Comparator
		}
		probes := make([]probe, 0, len(bothVisible))
		for _, u := range bothVisible {
			cu := s.Coord(u)
			py, okY := s.Index(amoebot.Coord{X: -cu.Y - zP, Y: cu.Y, Z: zP})
			pz, okZ := s.Index(amoebot.XZ(cu.X, zP))
			if !okY || !okZ || !inP.Has(py) || !inP.Has(pz) {
				panic("core: projection of a visible amoebot missed the portal")
			}
			probes = append(probes, probe{u: u, projY: py, projZ: pz})
		}
		ex := env.Exec()
		for !run.Done(0) {
			run.StepRound(clock)
			bits := run.Bits(0)
			ex.ForChunks(len(probes), oracleChunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pr := &probes[i]
					pr.cmp.Feed(bits[toLocal.At(pr.projY)], bits[toLocal.At(pr.projZ)])
				}
			})
		}
		ar.PutIndex(toLocal)
		run.Release()
		ex.ForChunks(len(probes), oracleChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pr := &probes[i]
				// n_y if dist(S, proj_y) ≤ dist(S, proj_z), else n_z (Lemma 46).
				if pr.cmp.Result() != bitstream.Greater {
					out.SetParent(pr.u, mustNeighbor(region, pr.u, towardY))
				} else {
					out.SetParent(pr.u, mustNeighbor(region, pr.u, towardZ))
				}
			}
		})
	}

	// Phase 2: invisible components. Each component Z elects s_Z (the
	// amoebot adjacent to B' closest to P), adopts a nearest-P neighbor in
	// B' as its parent and runs the SPT algorithm inside Z (in parallel
	// over all components; two rounds for the component circuits/election).
	var invisible []int32
	for _, u := range bNodes {
		if !visible.Has(u) {
			invisible = append(invisible, u)
		}
	}
	if len(invisible) > 0 {
		clock.Tick(2)
		comps := amoebot.NewRegion(s, invisible).Components()
		// The components are vertex-disjoint sub-regions, so their SPTs run
		// on worker goroutines (each writes only its own component's forest
		// entries); the branch clocks join in component order.
		branches := make([]*sim.Clock, len(comps))
		env.Exec().For(len(comps), func(ci int) {
			z := comps[ci]
			branch := clock.Fork()
			branches[ci] = branch
			sz, parent := electComponentRoot(region, z, visible, zP)
			out.SetParent(sz, parent)
			if z.Len() > 1 {
				sub := SPTEnv(env, branch, z, sz, z.Nodes())
				for _, u := range z.Nodes() {
					if u == sz {
						continue
					}
					if p := sub.Parent(u); p != amoebot.None {
						out.SetParent(u, p)
					} else {
						panic(fmt.Sprintf("core: phase-2 SPT left node %d unparented", u))
					}
				}
			}
		})
		clock.JoinMax(branches...)
	}
	return out
}

// mustNeighbor returns u's neighbor in direction d inside the region.
func mustNeighbor(region *amoebot.Region, u int32, d amoebot.Direction) int32 {
	v := region.Neighbor(u, d)
	if v == amoebot.None {
		panic(fmt.Sprintf("core: expected neighbor of %d in direction %v", u, d))
	}
	return v
}

func sameForest(t *testing.T, label string, want, got *amoebot.Forest) {
	t.Helper()
	n := int32(want.Structure().N())
	for u := int32(0); u < n; u++ {
		if want.Member(u) != got.Member(u) {
			t.Fatalf("%s: node %d membership %v vs %v", label, u, want.Member(u), got.Member(u))
		}
		if want.Member(u) && want.Parent(u) != got.Parent(u) {
			t.Fatalf("%s: node %d parent %d vs %d", label, u, want.Parent(u), got.Parent(u))
		}
	}
}

func sameClock(t *testing.T, label string, want, got *sim.Clock) {
	t.Helper()
	if want.Rounds() != got.Rounds() || want.Beeps() != got.Beeps() {
		t.Fatalf("%s: rounds/beeps %d/%d vs %d/%d",
			label, want.Rounds(), want.Beeps(), got.Rounds(), got.Beeps())
	}
}

// oracleEnvs are the environments every oracle comparison runs under: the
// serial path and a four-worker executor.
func oracleEnvs() []*Env {
	return []*Env{testEnv(), NewEnv(par.New(4, dense.NewArena()), nil)}
}

// checkLineOracle compares LineForestEnv against linePacked.
func checkLineOracle(t *testing.T, label string, s *amoebot.Structure, chain, sources []int32) {
	t.Helper()
	for _, env := range oracleEnvs() {
		var want, got sim.Clock
		wf := linePacked(env, &want, s, chain, sources)
		gf := LineForestEnv(env, &got, s, chain, sources)
		sameForest(t, label, wf, gf)
		sameClock(t, label, &want, &got)
	}
}

// checkMergeOracle compares MergeEnv against mergePacked.
func checkMergeOracle(t *testing.T, label string, f1, f2 *amoebot.Forest) {
	t.Helper()
	for _, env := range oracleEnvs() {
		var want, got sim.Clock
		wf := mergePacked(env, &want, f1, f2)
		gf := MergeEnv(env, &got, f1, f2)
		sameForest(t, label, wf, gf)
		sameClock(t, label, &want, &got)
	}
}

// checkPropagateOracleAt builds the propagation input of propagateSetup
// for the structure's x-portal portalIdx and side into, with k sources,
// and compares PropagateEnv against propagatePackedEnv on it. It reports
// false when the portal admits no such input.
func checkPropagateOracleAt(t *testing.T, label string, rng *rand.Rand, s *amoebot.Structure, portalIdx, k int, into amoebot.Side) bool {
	t.Helper()
	region, pnodes, _, f, ok := propagateSetup(t, rng, s, portalIdx, k, into)
	if !ok {
		return false
	}
	for _, env := range oracleEnvs() {
		var want, got sim.Clock
		wf := propagatePackedEnv(env, &want, region, pnodes, f, into)
		gf := PropagateEnv(env, &got, region, pnodes, f, into)
		sameForest(t, label, wf, gf)
		sameClock(t, label, &want, &got)
	}
	return true
}

// lineOracleSources draws a source set on a chain of n slots, cycling
// through the shapes the line algorithm distinguishes: a random subset,
// sources away from both ends, a run of adjacent sources, a single
// source, and none.
func lineOracleSources(rng *rand.Rand, chain []int32, shape int) []int32 {
	n := len(chain)
	var idx []int
	switch {
	case n == 0 || shape%5 == 4:
	case shape%5 == 0:
		idx = rng.Perm(n)[:1+rng.Intn(n)]
	case shape%5 == 1 && n >= 3: // no source at either end
		for _, i := range rng.Perm(n - 2)[:1+rng.Intn(n-2)] {
			idx = append(idx, i+1)
		}
	case shape%5 == 2 && n >= 2: // adjacent sources plus a few others
		i := rng.Intn(n - 1)
		idx = append([]int{i, i + 1}, rng.Perm(n)[:rng.Intn(min(n, 3))]...)
	default:
		idx = []int{rng.Intn(n)}
	}
	seen := make(map[int]bool)
	var sources []int32
	for _, i := range idx {
		if !seen[i] {
			seen[i] = true
			sources = append(sources, chain[i])
		}
	}
	return sources
}

// TestLineForestMatchesPackedOracle: the closed-form line algorithm
// against its packed execution on random lines and chain orders, with
// sources at random, away from both ends, adjacent, single and absent.
func TestLineForestMatchesPackedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(160)
		if trial%40 == 0 {
			n = 1 + rng.Intn(3)
		}
		s := shapes.Line(max(n, 1))
		chain := chainOf(s)[:n]
		if rng.Intn(2) == 0 {
			for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
		}
		sources := lineOracleSources(rng, chain, trial)
		checkLineOracle(t, fmt.Sprintf("trial %d (n=%d, %d sources)", trial, n, len(sources)), s, chain, sources)
	}
}

// randomMergeSide returns a forest for one side of a merge on the region:
// an SPT of a random source pruned to random destinations or to all of
// them, the packed merge of two such trees, or (with empty) no members.
func randomMergeSide(rng *rand.Rand, r *amoebot.Region, empty bool) *amoebot.Forest {
	s := r.Structure()
	if empty {
		return amoebot.NewForest(s)
	}
	tree := func() *amoebot.Forest {
		dests := r.Nodes()
		if rng.Intn(3) == 0 {
			dests = shapes.RandomSubset(rng, s, 1+rng.Intn(s.N()))
		}
		var build sim.Clock
		return SPTEnv(testEnv(), &build, r, int32(rng.Intn(s.N())), dests)
	}
	if rng.Intn(3) == 0 {
		var build sim.Clock
		return mergePacked(testEnv(), &build, tree(), tree())
	}
	return tree()
}

// TestMergeMatchesPackedOracle: the closed-form merge against its packed
// execution on pairs of random SPT forests — pruned, multi-source and
// empty sides included.
func TestMergeMatchesPackedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for trial := 0; trial < 80; trial++ {
		s := shapes.RandomBlob(rng, 10+rng.Intn(160))
		r := amoebot.WholeRegion(s)
		f1 := randomMergeSide(rng, r, trial%8 == 1)
		f2 := randomMergeSide(rng, r, trial%8 == 0)
		checkMergeOracle(t, fmt.Sprintf("trial %d (n=%d)", trial, s.N()), f1, f2)
	}
}

// TestPropagateMatchesPackedOracle: the closed-form propagation against
// its packed execution on both sides of every x-portal of random blobs.
func TestPropagateMatchesPackedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	checked := 0
	for trial := 0; trial < 12; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(200))
		ports := portal.Compute(amoebot.WholeRegion(s), amoebot.AxisX)
		for id := 0; id < ports.Len(); id++ {
			for side := amoebot.Side(0); side < amoebot.NumSides; side++ {
				label := fmt.Sprintf("trial %d (n=%d) portal %d side %d", trial, s.N(), id, side)
				if checkPropagateOracleAt(t, label, rng, s, id, 1+rng.Intn(4), side) {
					checked++
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d portal sides admitted a propagation input", checked)
	}
}

// mustPanicWith runs fn and requires a panic whose message contains want.
func mustPanicWith(t *testing.T, label, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic, want %q", label, want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want %q", label, msg, want)
		}
	}()
	fn()
}

// TestClosedFormsRejectNonForests: merging and propagation read depths off
// the parent links, so a forest whose member has a non-member parent, or
// whose parents close a cycle, panics, as the packed executions did.
// Propagation also rejects a portal run with a gap or out of x order,
// which its projection arithmetic relies on.
func TestClosedFormsRejectNonForests(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	s := shapes.Hexagon(5)
	const side = amoebot.SideB
	var region *amoebot.Region
	var pnodes []int32
	var f *amoebot.Forest
	for id := 0; ; id++ {
		var ok bool
		if region, pnodes, _, f, ok = propagateSetup(t, rng, s, id, 2, side); ok && len(pnodes) >= 3 {
			break
		}
	}
	// u and v: members of f, adjacent on the portal run.
	u, v := pnodes[1], pnodes[2]
	cyclic := f.Clone()
	cyclic.SetParent(u, v)
	cyclic.SetParent(v, u)
	dangling := f.Clone()
	for w := int32(0); ; w++ {
		if !f.Member(w) {
			dangling.SetParent(u, w)
			break
		}
	}
	r := amoebot.WholeRegion(s)
	var build sim.Clock
	other := SPTEnv(testEnv(), &build, r, pnodes[0], r.Nodes())
	for _, bad := range []struct {
		name, want string
		f          *amoebot.Forest
	}{
		{"cycle", "not a forest", cyclic},
		{"non-member parent", "parent outside member set", dangling},
	} {
		var clock sim.Clock
		mustPanicWith(t, "MergeEnv(bad, f) "+bad.name, bad.want, func() { MergeEnv(testEnv(), &clock, bad.f, other) })
		mustPanicWith(t, "MergeEnv(f, bad) "+bad.name, bad.want, func() { MergeEnv(testEnv(), &clock, other, bad.f) })
		mustPanicWith(t, "PropagateEnv "+bad.name, bad.want, func() { PropagateEnv(testEnv(), &clock, region, pnodes, bad.f, side) })
	}
	gapped := append(append([]int32(nil), pnodes[:1]...), pnodes[2:]...)
	reversed := make([]int32, len(pnodes))
	for i, p := range pnodes {
		reversed[len(pnodes)-1-i] = p
	}
	for _, run := range []struct {
		name  string
		nodes []int32
	}{{"gapped", gapped}, {"reversed", reversed}} {
		var clock sim.Clock
		mustPanicWith(t, "PropagateEnv "+run.name+" run", "not a contiguous run", func() { PropagateEnv(testEnv(), &clock, region, run.nodes, f, side) })
	}
}
