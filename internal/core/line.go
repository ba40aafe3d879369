package core

import (
	"spforest/amoebot"
	"spforest/internal/sim"
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
// The two PASC executions are evaluated in closed form (DESIGN.md §2): one
// sweep per direction yields every slot's streamed distance, the slot
// compares the two integers its comparator would have settled on, and
// sim.Clock.ChargePASC bills the joint two-lane run. The per-slot scratch
// draws from the arena, so a stream of line queries allocates only the
// output forest.
func LineForestEnv(env *Env, clock *sim.Clock, s *amoebot.Structure, chain []int32, sources []int32) *amoebot.Forest {
	f := amoebot.NewForest(s)
	label := forestLabels.Take(s.N())
	lineForest(env, clock, s, chain, sources, f, label)
	forestLabels.Put(label, chain)
	return f
}

// lineForest is LineForestEnv writing the forest into f, which has no
// member on the chain, and each member's label into label: its depth + 1,
// which is the streamed distance the slot compared, plus one.
func lineForest(env *Env, clock *sim.Clock, s *amoebot.Structure, chain []int32, sources []int32, f *amoebot.Forest, label []int32) {
	ar := env.Arena()
	n := len(chain)
	if n == 0 {
		return
	}
	isSource := ar.Bools(n)
	defer ar.PutBools(isSource)
	pos := ar.Index(s.N())
	defer ar.PutIndex(pos)
	for i, g := range chain {
		pos.Set(g, int32(i))
	}
	first, last := n, -1 // westernmost and easternmost source slots
	for _, src := range sources {
		i, ok := pos.Get(src)
		if !ok {
			panic("core: line source outside chain")
		}
		isSource[i] = true
		first, last = min(first, int(i)), max(last, int(i))
	}
	if len(sources) == 0 {
		return
	}

	// One beep round per direction on the chain circuit cut at sources:
	// every amoebot learns whether a source exists on its west/east side.
	clock.Tick(2)
	clock.AddBeeps(2 * int64(len(sources)))

	// The eastward run's roots are the sources plus slot 0 (a dummy root
	// when it is no source), and slot i streams distE(i), its distance to
	// the nearest root at or west of it. The westward run is symmetric with
	// slot n−1, and the backward sweep resolves each slot as it goes.
	var vals sim.Tally
	distE := ar.Int32s(n)
	defer ar.PutInt32s(distE)
	for i := 1; i < n; i++ {
		if !isSource[i] {
			distE[i] = distE[i-1] + 1
			vals.Add(int(distE[i]))
		}
	}
	distW := int32(0)
	for i := n - 1; i >= 0; i-- {
		g := chain[i]
		switch {
		case isSource[i]:
			distW = 0
			f.SetRoot(g)
			label[g] = 1
			continue
		case i < n-1:
			distW++
			vals.Add(int(distW))
		}
		hasWest, hasEast := i > first, i < last
		if hasWest && (!hasEast || distE[i] <= distW) {
			f.SetParent(g, chain[i-1]) // west distance ≤ east distance
			label[g] = distE[i] + 1
		} else {
			f.SetParent(g, chain[i+1])
			label[g] = distW + 1
		}
	}
	clock.ChargePASC(2, vals)
	labelled("line", f, label)
}
