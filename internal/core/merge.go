package core

import (
	"spforest/amoebot"
	"spforest/internal/sim"
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
// The two tree-PASC executions are evaluated in closed form (DESIGN.md
// §2): the streamed value of a member is its depth, which the forest path
// carries as a label on every member. MergeEnv takes arbitrary forests, so
// it first labels both with one memoized walk up each forest's parent
// links (forestDepths), then merges as the forest path does: a doubly
// covered amoebot compares the two depths, and sim.Clock.ChargePASC bills
// the joint two-lane run on the merge's clock. Panics unless both forests
// are forests over their members.
func MergeEnv(env *Env, clock *sim.Clock, f1, f2 *amoebot.Forest) *amoebot.Forest {
	if f2.Structure() != f1.Structure() {
		panic("core: merging forests of different structures")
	}
	ar := env.Arena()
	nodes := amoebot.WholeRegion(f1.Structure()).Nodes()
	out := f1.Clone()
	label1 := forestDepths(out, nodes, ar)
	defer ar.PutInt32s(label1)
	label2 := forestDepths(f2, nodes, ar)
	defer ar.PutInt32s(label2)
	merge(clock, nodes, out, label1, f2, label2)
	return out
}

// merge is MergeEnv merging f2 into f1 in place, in one pass over nodes,
// the region both forests live on (holding every member of each), so the
// merge costs the region, not the structure. label1 and label2 are the
// forests' labels (see forestLabels); label1 ends as the merged forest's.
// The pass tallies both forests' PASC values from their labels, and every
// amoebot f2 covers keeps f2's parent and label where f1 does not cover it
// or f2's depth is strictly smaller. An empty side charges nothing.
func merge(clock *sim.Clock, nodes []int32, f1 *amoebot.Forest, label1 []int32, f2 *amoebot.Forest, label2 []int32) {
	var vals sim.Tally
	var seen1, seen2 int32 // OR of the labels: nonzero iff a side has a member
	for _, u := range nodes {
		l1, l2 := label1[u], label2[u]
		seen1 |= l1
		seen2 |= l2
		if l1 > 1 {
			vals.Add(int(l1) - 1)
		}
		if l2 == 0 {
			continue
		}
		if l2 > 1 {
			vals.Add(int(l2) - 1)
		}
		if l1 == 0 || l2 < l1 {
			f1.SetParent(u, f2.Parent(u))
			label1[u] = l2
		}
	}
	if seen1 != 0 && seen2 != 0 {
		clock.ChargePASC(2, vals)
	}
	labelled("merge", f1, label1)
}
