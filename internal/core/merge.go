package core

import (
	"spforest/amoebot"
	"spforest/internal/bitstream"
	"spforest/internal/dense"
	"spforest/internal/par"
	"spforest/internal/sim"
	"spforest/internal/wave"
)

// MergeEnv merges an S1-shortest path forest and an S2-shortest path
// forest into an (S1∪S2)-shortest path forest (§5.2, Lemma 42): tree-PASC
// executions on both forests stream every amoebot's dist(S1,·) and
// dist(S2,·); each amoebot compares them with an O(1)-state comparator and
// keeps the parent of the nearer side (Lemma 41; ties towards f1).
//
// Amoebots covered by only one forest keep that forest's parent; the merge
// is meaningful when every relevant amoebot is covered by at least one
// side. Runs in O(log n) rounds; 4 links per edge (2 per forest).
//
// The two tree-PASC waves run as the two lanes of one packed execution
// (DESIGN.md §10), and the per-amoebot comparator feeds of each joint
// iteration fan out over index chunks (every doubly-covered amoebot owns
// its comparator slot, so chunks write disjoint state and the outcome is
// identical at every worker count). It is MergeManyEnv over one pair.
func MergeEnv(env *Env, clock *sim.Clock, f1, f2 *amoebot.Forest) *amoebot.Forest {
	return MergeManyEnv(env, []*sim.Clock{clock}, [][2]*amoebot.Forest{{f1, f2}})[0]
}

// MergeManyEnv merges independent forest pairs — no forest appearing in two
// pairs — as lanes of shared tree-PASC executions: up to wave.MaxLanes/2
// pairs per packed pass, pair i advancing on clocks[i] and charged exactly
// what merging that pair alone charges (a pair whose two waves have
// terminated is skipped by later joint iterations, exactly as its own loop
// would have exited). Forests and per-clock accounting are bit-identical to
// calling MergeEnv per pair.
func MergeManyEnv(env *Env, clocks []*sim.Clock, pairs [][2]*amoebot.Forest) []*amoebot.Forest {
	if len(clocks) != len(pairs) {
		panic("core: MergeManyEnv clock count mismatch")
	}
	out := make([]*amoebot.Forest, len(pairs))
	// Trivial pairs (an empty side) resolve to clones without lanes or
	// clock charge; live pairs pack.
	var live []int
	for i, pr := range pairs {
		switch {
		case pr[1].Structure() != pr[0].Structure():
			panic("core: merging forests of different structures")
		case pr[0].Size() == 0:
			out[i] = pr[1].Clone()
		case pr[1].Size() == 0:
			out[i] = pr[0].Clone()
		default:
			live = append(live, i)
		}
	}
	const perPass = wave.MaxLanes / 2
	for lo := 0; lo < len(live); lo += perPass {
		hi := lo + perPass
		if hi > len(live) {
			hi = len(live)
		}
		mergePackedPairs(env, clocks, pairs, live[lo:hi], out)
	}
	return out
}

// mergePackedPairs runs one packed pass over the given non-trivial pair
// indices, writing each pair's merged forest into out. Each forest's
// member list is taken once and shared by its lane, its comparators and
// the assembly.
func mergePackedPairs(env *Env, clocks []*sim.Clock, pairs [][2]*amoebot.Forest, idxs []int, out []*amoebot.Forest) {
	ar := env.Arena()
	p := wave.NewPacked(ar, env.Waves())
	locals := make([]*dense.Index, 2*len(idxs))
	parents := make([][]int32, 2*len(idxs))
	members := make([][]int32, 2*len(idxs))
	mcs := make([]*mergeCmps, len(idxs))
	pairClocks := make([]*sim.Clock, len(idxs))
	for k, i := range idxs {
		f1, f2 := pairs[i][0], pairs[i][1]
		members[2*k], members[2*k+1] = f1.Members(), f2.Members()
		parents[2*k], locals[2*k] = forestLaneParent(f1, members[2*k], ar)
		parents[2*k+1], locals[2*k+1] = forestLaneParent(f2, members[2*k+1], ar)
		p.AddLane(parents[2*k], nil)
		p.AddLane(parents[2*k+1], nil)
		mcs[k] = newMergeCmps(f1, f2, members[2*k], ar)
		pairClocks[k] = clocks[i]
	}
	p.Seal()
	for _, col := range parents {
		ar.PutInt32s(col)
	}
	ex := env.Exec()
	liveBefore := make([]bool, len(idxs))
	for !p.AllDone() {
		// A pair already done has exited its own loop: no step, no feed. A
		// pair finishing in this very iteration still feeds — its own loop
		// also consumes the bits of its final iteration.
		for k := range idxs {
			liveBefore[k] = !p.PairDone(k)
		}
		p.StepPairs(pairClocks)
		for k := range idxs {
			if liveBefore[k] {
				mcs[k].feed(ex, locals[2*k], locals[2*k+1], p.Bits(2*k), p.Bits(2*k+1))
			}
		}
	}
	p.Release()
	for k, i := range idxs {
		out[i] = mcs[k].assemble(pairs[i][0], pairs[i][1], members[2*k], members[2*k+1])
		mcs[k].release(ar)
		ar.PutIndex(locals[2*k])
		ar.PutIndex(locals[2*k+1])
	}
}

// mergeCmps is the comparator side of one merge: the doubly-covered
// amoebots, the node → comparator slot index, and the byte-encoded
// comparator column (bitstream.CmpFeed semantics — arena-recycled instead
// of a fresh []bitstream.Comparator per merge).
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
	ex.Range(len(mc.both), func(lo, hi int) {
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
