// Package circuits simulates the reconfigurable circuit extension of the
// amoebot model (paper §1.2).
//
// Each amoebot partitions its pins into partition sets; partition sets of
// neighboring amoebots are joined by external links; a circuit is a
// connected component of the resulting graph. An amoebot may beep on any of
// its partition sets; at the beginning of the next round every partition set
// of the same circuit observes the beep, without learning origin or
// multiplicity.
//
// A Net models the pin configuration of one phase. Union-find maintains the
// circuits as links are added; Beep/Deliver implement one synchronous beep
// round. Per-grid-edge link counts are tracked so constructions can assert
// they respect the constant number c of external links per edge.
//
// The algorithms evaluate their circuits in closed form (DESIGN.md §2); the
// nets built here are the reference executions their oracle tests compare
// against.
package circuits

import (
	"fmt"

	"spforest/amoebot"
	"spforest/internal/dense"
	"spforest/internal/sim"
)

// PS is a handle to a partition set within a Net.
type PS int32

// NoPS is the zero handle's invalid predecessor; valid handles are ≥ 0.
const NoPS PS = -1

// Net is one pin configuration of the amoebot system. The zero value is not
// usable; create Nets with New.
type Net struct {
	owner  []int32 // partition set -> amoebot node (or -1 for virtual)
	parent []int32 // union-find over partition sets
	rank   []int8

	edgeLinks map[edgeKey]int8
	maxLinks  int8

	// circ, when non-nil, is the frozen circuit table: circ[ps] is the
	// union-find root of ps's circuit, resolved once by Freeze so that
	// beep delivery needs no pointer chasing. Any later Link or
	// NewPartitionSet invalidates it.
	circ []int32

	beeped    dense.BitSet // circuit roots with a beep pending this round
	sent      int64
	delivered bool
}

type edgeKey struct{ a, b int32 }

// New returns an empty pin configuration.
func New() *Net {
	return &Net{
		edgeLinks: make(map[edgeKey]int8),
	}
}

// NewPartitionSet creates a partition set owned by the given amoebot node.
// Owner -1 denotes a virtual endpoint (used only in tests).
func (n *Net) NewPartitionSet(owner int32) PS {
	ps := PS(len(n.parent))
	n.owner = append(n.owner, owner)
	n.parent = append(n.parent, int32(ps))
	n.rank = append(n.rank, 0)
	n.beeped.Extend(len(n.parent))
	n.circ = nil // the frozen table no longer covers the new set
	return ps
}

// Owner returns the amoebot owning the partition set.
func (n *Net) Owner(ps PS) int32 { return n.owner[ps] }

// Len returns the number of partition sets.
func (n *Net) Len() int { return len(n.parent) }

func (n *Net) find(x int32) int32 {
	for n.parent[x] != x {
		n.parent[x] = n.parent[n.parent[x]] // path halving
		x = n.parent[x]
	}
	return x
}

// Link places an external link between two partition sets of distinct
// neighboring amoebots, merging their circuits. It accounts one pin pair on
// the grid edge between the owners.
func (n *Net) Link(a, b PS) {
	ao, bo := n.owner[a], n.owner[b]
	if ao == bo && ao != -1 {
		panic("circuits: link between partition sets of the same amoebot")
	}
	if ao != -1 && bo != -1 {
		k := edgeKey{ao, bo}
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		n.edgeLinks[k]++
		if n.edgeLinks[k] > n.maxLinks {
			n.maxLinks = n.edgeLinks[k]
		}
	}
	ra, rb := n.find(int32(a)), n.find(int32(b))
	if ra == rb {
		return
	}
	n.circ = nil // circuits changed: the frozen table is stale
	if n.rank[ra] < n.rank[rb] {
		ra, rb = rb, ra
	}
	n.parent[rb] = ra
	if n.rank[ra] == n.rank[rb] {
		n.rank[ra]++
	}
}

// root resolves the circuit root of x: the frozen table when available,
// the (mutating, path-halving) union-find walk otherwise.
func (n *Net) root(x int32) int32 {
	if n.circ != nil {
		return n.circ[x]
	}
	return n.find(x)
}

// Freeze resolves every partition set's circuit root into a flat table.
// The resolution walks the union-find read-only — no path halving — so
// after Freeze, Beep / Received / SameCircuit are single array loads that
// never mutate the net; a later Link or NewPartitionSet invalidates the
// table (the next Freeze rebuilds it).
func (n *Net) Freeze() {
	if n.circ != nil {
		return
	}
	circ := make([]int32, len(n.parent))
	for x := range circ {
		r := int32(x)
		for n.parent[r] != r {
			r = n.parent[r]
		}
		circ[x] = r
	}
	n.circ = circ
}

// SameCircuit reports whether two partition sets belong to the same circuit.
func (n *Net) SameCircuit(a, b PS) bool { return n.root(int32(a)) == n.root(int32(b)) }

// MaxLinksPerEdge returns the largest number of links this configuration
// places on any single grid edge; constructions assert it stays within the
// constant c of the model (our constructions use at most 4).
func (n *Net) MaxLinksPerEdge() int { return int(n.maxLinks) }

// Beep marks a beep to be sent on the circuit of ps this round.
func (n *Net) Beep(ps PS) {
	if n.delivered {
		panic("circuits: beep after delivery; call NextRound first")
	}
	n.sent++
	n.beeped.Add(n.root(int32(ps)))
}

// Deliver ends the beep round: it charges one synchronous round (and the
// beeps sent) to the clock and makes Received available.
func (n *Net) Deliver(clock *sim.Clock) {
	if n.delivered {
		panic("circuits: double delivery")
	}
	n.delivered = true
	clock.Tick(1)
	clock.AddBeeps(n.sent)
}

// Received reports whether the circuit of ps carried a beep in the
// delivered round.
func (n *Net) Received(ps PS) bool {
	if !n.delivered {
		panic("circuits: Received before Deliver")
	}
	return n.beeped.Has(n.root(int32(ps)))
}

// NextRound clears beep state so the same pin configuration can carry
// another beep round.
func (n *Net) NextRound() {
	n.delivered = false
	n.sent = 0
	n.beeped.Reset()
}

func (n *Net) String() string {
	return fmt.Sprintf("Net(%d partition sets, max %d links/edge)", n.Len(), n.maxLinks)
}

// RegionCircuit builds the standard "one circuit spanning the region"
// configuration: every amoebot of the region contributes one partition set
// covering all its pins toward region-internal neighbors. The returned
// slice, indexed by structure node, yields each region node's partition set
// (NoPS outside the region). Uses 1 link per region-internal edge.
func RegionCircuit(n *Net, r *amoebot.Region) []PS {
	return NodeSetCircuit(n, r.Structure(), r.Nodes())
}

// NodeSetCircuit builds one circuit spanning an arbitrary node set (one
// partition set per node, links along all structure edges inside the set).
// The returned slice is indexed by structure node, NoPS outside the set.
func NodeSetCircuit(n *Net, s *amoebot.Structure, nodes []int32) []PS {
	ps := make([]PS, s.N())
	for i := range ps {
		ps[i] = NoPS
	}
	uniq := make([]int32, 0, len(nodes))
	for _, u := range nodes {
		if ps[u] == NoPS {
			ps[u] = n.NewPartitionSet(u)
			uniq = append(uniq, u)
		}
	}
	for _, u := range uniq {
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v := s.Neighbor(u, d); v != amoebot.None && ps[v] != NoPS && u < v {
				n.Link(ps[u], ps[v])
			}
		}
	}
	return ps
}
