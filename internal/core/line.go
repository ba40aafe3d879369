package core

import (
	"spforest/amoebot"
	"spforest/internal/bitstream"
	"spforest/internal/sim"
	"spforest/internal/wave"
)

// LineForestEnv computes an S-shortest path forest for a chain of amoebots
// (§5.1, Lemma 40): the PASC algorithm runs from every source into both
// directions up to the next source (two joint PASC executions, one per
// direction, 4 links per edge); every amoebot compares its two streamed
// distances with an O(1)-state comparator and adopts the neighbor towards
// the nearer source (ties towards the negative end).
//
// chain lists the amoebot node ids in chain order; sources must be a subset
// of the chain. Runs in O(log n) rounds.
//
// The east and west runs execute as two lanes of one packed wave execution
// (DESIGN.md §10). The per-amoebot comparator feeds of each PASC iteration
// and the final parent sweep fan out over index chunks (each slot owns its
// comparator and its forest entry, so chunks write disjoint state). All
// per-slot scratch — flag columns, direction parent columns, comparator
// states, the packed wave columns — draws from the arena, so a stream of
// line queries runs allocation-free here.
func LineForestEnv(env *Env, clock *sim.Clock, s *amoebot.Structure, chain []int32, sources []int32) *amoebot.Forest {
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
		ex.Range(n, func(lo, hi int) {
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
	p := wave.NewPacked(ar, env.Waves())
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
	ex.Range(n, func(lo, hi int) {
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
