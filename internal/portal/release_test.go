package portal

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spforest/amoebot"
	"spforest/internal/shapes"
)

// ballRegion returns the connected region of the amoebots within hop
// distance radius of center.
func ballRegion(s *amoebot.Structure, center int32, radius int) *amoebot.Region {
	dist := map[int32]int{center: 0}
	queue := []int32{center}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == radius {
			continue
		}
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v := s.Neighbor(u, d); v != amoebot.None {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	var nodes []int32
	for u := range dist {
		nodes = append(nodes, u)
	}
	return amoebot.NewRegion(s, nodes)
}

// portalsSnapshot is a deep copy of what a decomposition answers.
type portalsSnapshot struct {
	region  *amoebot.Region
	axis    amoebot.Axis
	id      []int32
	nbr     [][]int32
	conn    [][]int32 // conn[id][j]: Connector(id, nbr[id][j])
	nodesOf [][]int32
}

func snapshot(p *Portals) portalsSnapshot {
	snap := portalsSnapshot{region: p.Region, axis: p.Axis, id: slices.Clone(p.ID)}
	for id := int32(0); id < int32(p.Len()); id++ {
		snap.nbr = append(snap.nbr, slices.Clone(p.Nbr[id]))
		var conn []int32
		for _, to := range p.Nbr[id] {
			conn = append(conn, p.Connector(id, to))
		}
		snap.conn = append(snap.conn, conn)
		snap.nodesOf = append(snap.nodesOf, slices.Clone(p.NodesOf(id)))
	}
	return snap
}

// matches reports whether p answers exactly as the snapshotted
// decomposition: ID over all n entries, Nbr, NodesOf and every Connector.
func (snap portalsSnapshot) matches(p *Portals) bool {
	if p.Len() != len(snap.nbr) || !slices.Equal(p.ID, snap.id) {
		return false
	}
	for id := int32(0); id < int32(p.Len()); id++ {
		if !slices.Equal(p.Nbr[id], snap.nbr[id]) || !slices.Equal(p.NodesOf(id), snap.nodesOf[id]) {
			return false
		}
		for j, to := range snap.nbr[id] {
			if p.Connector(id, to) != snap.conn[id][j] {
				return false
			}
		}
	}
	return true
}

// TestComputeOnRecycledColumnsMatchesFresh: decompositions computed on ID
// columns that other regions of other sizes wrote and released, from four
// goroutines at once, answer exactly as the first, fresh computation, and
// Release leaves ID nil.
func TestComputeOnRecycledColumnsMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	var cases []portalsSnapshot
	for trial := 0; trial < 6; trial++ {
		s := shapes.RandomBlob(rng, 20+rng.Intn(250))
		regions := []*amoebot.Region{
			amoebot.WholeRegion(s),
			amoebot.NewRegion(s, []int32{int32(rng.Intn(s.N()))}),
		}
		for i := 0; i < 3; i++ {
			regions = append(regions, ballRegion(s, int32(rng.Intn(s.N())), 1+rng.Intn(6)))
		}
		for _, r := range regions {
			for axis := amoebot.Axis(0); axis < amoebot.NumAxes; axis++ {
				p := Compute(r, axis)
				cases = append(cases, snapshot(p))
				p.Release()
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range cases {
					c := cases[(i*7+g*13+round)%len(cases)]
					p := Compute(c.region, c.axis)
					if !c.matches(p) {
						t.Errorf("goroutine %d: recomputed %v-decomposition of a %d-amoebot region differs from the fresh one",
							g, c.axis, c.region.Len())
						return
					}
					p.Release()
					if p.ID != nil {
						t.Errorf("goroutine %d: ID not nil after Release", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
