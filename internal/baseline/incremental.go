package baseline

import (
	"spforest/amoebot"
	"spforest/internal/dense"
)

// Unknown marks a distance entry that the caller cannot vouch for after a
// structure mutation (newly added nodes). RepairExact restores every
// reachable Unknown entry.
const Unknown = int32(1) << 30

// RepairExact incrementally restores dist to the exact multi-source BFS
// distances of ExactExec(ex, r, srcs) after a structure mutation, instead of
// recomputing them from scratch. It is the dynamic-SSSP repair of
// Ramalingam & Reps specialised to unit weights: a downward pass that
// invalidates every node whose old shortest path died with a removed cell,
// and an upward pass that re-relaxes the affected frontier (which also
// propagates shortcuts through added cells). The traversal work is
// proportional to the affected neighborhood, not to the structure size.
//
// On entry dist must hold, for every node of r's structure:
//   - the node's exact distance to srcs before the mutation (for nodes
//     that survived, remapped to the new indexing), or
//   - Unknown for nodes without a trustworthy old value.
//
// suspects lists the surviving nodes adjacent to removed cells — the only
// places where an old shortest path can have been severed — and added
// lists the nodes holding Unknown. srcs must all carry distance 0. The
// return value counts the distance writes the repair performed; 0 means
// the mutation did not move any distance.
func RepairExact(r *amoebot.Region, srcs []int32, dist []int32, suspects, added []int32) int {
	n := r.Structure().N()
	isSource := dense.Shared.BitSet(n)
	defer dense.Shared.PutBitSet(isSource)
	for _, s := range srcs {
		isSource.Add(s)
	}

	// Downward pass: a non-source node is supported iff some neighbor sits
	// exactly one layer below it. Processing candidates in ascending old
	// distance guarantees every potential supporter is settled first, so a
	// node that keeps its value provably still has a shortest path of that
	// length, and a node that lost every support goes to Unknown,
	// cascading to the layer above.
	var q bucketQueue
	for _, u := range suspects {
		if dist[u] < Unknown {
			q.push(dist[u], u)
		}
	}
	changed := 0
	unknown := append([]int32(nil), added...)
	for {
		d, u, ok := q.pop()
		if !ok {
			break
		}
		if dist[u] != d || isSource.Has(u) {
			continue // stale queue entry, or a source (always supported)
		}
		supported := false
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			if v := r.Neighbor(u, dir); v != amoebot.None && dist[v] == d-1 {
				supported = true
				break
			}
		}
		if supported {
			continue
		}
		dist[u] = Unknown
		unknown = append(unknown, u)
		changed++
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			if v := r.Neighbor(u, dir); v != amoebot.None && dist[v] == d+1 {
				q.push(d+1, v)
			}
		}
	}

	// Upward pass: re-relax outward from the settled frontier around every
	// Unknown node (invalidated above, or added by the mutation). Added
	// cells start Unknown, so shortcuts they create propagate here too,
	// lowering settled distances where a new path is shorter.
	var q2 bucketQueue
	seeded := dense.Shared.BitSet(n)
	defer dense.Shared.PutBitSet(seeded)
	for _, u := range unknown {
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			v := r.Neighbor(u, dir)
			if v != amoebot.None && dist[v] < Unknown && !seeded.Has(v) {
				seeded.Add(v)
				q2.push(dist[v], v)
			}
		}
	}
	for {
		d, u, ok := q2.pop()
		if !ok {
			break
		}
		if dist[u] != d {
			continue
		}
		for dir := amoebot.Direction(0); dir < amoebot.NumDirections; dir++ {
			v := r.Neighbor(u, dir)
			if v == amoebot.None || dist[v] <= d+1 {
				continue
			}
			dist[v] = d + 1
			changed++
			q2.push(d+1, v)
		}
	}
	return changed
}

// bucketQueue is a monotone priority queue over small integer keys: pushes
// never go below the bucket currently being drained, which holds for both
// repair passes (invalidation cascades strictly upward, relaxation is
// Dijkstra-monotone on unit weights).
type bucketQueue struct {
	buckets [][]int32
	cur     int
}

func (q *bucketQueue) push(key int32, v int32) {
	k := int(key)
	for len(q.buckets) <= k {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[k] = append(q.buckets[k], v)
}

func (q *bucketQueue) pop() (key int32, v int32, ok bool) {
	for q.cur < len(q.buckets) {
		b := q.buckets[q.cur]
		if len(b) == 0 {
			q.cur++
			continue
		}
		v = b[len(b)-1]
		q.buckets[q.cur] = b[:len(b)-1]
		return int32(q.cur), v, true
	}
	return 0, 0, false
}
