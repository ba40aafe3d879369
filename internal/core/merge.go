package core

import (
	"spforest/amoebot"
	"spforest/internal/pasc"
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
// §2): one memoized walk up each forest's parent links yields every
// member's depth — the value its execution streams — a doubly covered
// amoebot compares the two depths, and pasc.Charge bills the joint
// two-lane run on the merge's clock. Panics unless both forests are
// forests over their members.
func MergeEnv(env *Env, clock *sim.Clock, f1, f2 *amoebot.Forest) *amoebot.Forest {
	if f2.Structure() != f1.Structure() {
		panic("core: merging forests of different structures")
	}
	out := f1.Clone()
	merge(env, clock, amoebot.WholeRegion(f1.Structure()).Nodes(), out, f2)
	return out
}

// merge is MergeEnv merging f2 into f1 in place. nodes is the region both
// forests live on (ascending, holding every member of each), so the merge
// costs the region, not the structure. An empty side charges nothing.
func merge(env *Env, clock *sim.Clock, nodes []int32, f1, f2 *amoebot.Forest) {
	ar := env.Arena()
	members1 := membersAmong(f1, nodes, ar)
	defer ar.PutInt32s(members1)
	members2 := membersAmong(f2, nodes, ar)
	defer ar.PutInt32s(members2)
	if len(members1) == 0 || len(members2) == 0 {
		for _, g := range members2 {
			f1.SetParent(g, f2.Parent(g))
		}
		return
	}
	var vals pasc.Tally
	depth1 := forestDepths(f1, members1, ar, &vals)
	defer ar.PutInt32s(depth1)
	depth2 := forestDepths(f2, members2, ar, &vals)
	defer ar.PutInt32s(depth2)
	pasc.Charge(clock, 2, vals)

	// f2 is strictly nearer exactly where both depths are set and depth1 is
	// the larger; a non-member's entry is 0. f1 keeps every other member.
	for _, g := range members2 {
		if depth1[g] > depth2[g] || depth1[g] == 0 {
			f1.SetParent(g, f2.Parent(g))
		}
	}
}
