package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spforest/amoebot"
	"spforest/internal/portal"
	"spforest/internal/shapes"
	"spforest/internal/sim"
)

// memoSource memoizes the decompositions of one region, as the engine
// memoizes its whole region's, and computes nothing for other regions.
type memoSource struct {
	region *amoebot.Region
	ports  [amoebot.NumAxes]*portal.Portals
	views  [amoebot.NumAxes]*portal.View
}

func newMemoSource(region *amoebot.Region) *memoSource {
	m := &memoSource{region: region}
	for axis := range m.ports {
		m.ports[axis] = portal.Compute(region, amoebot.Axis(axis))
		m.views[axis] = m.ports[axis].WholeView()
	}
	return m
}

func (m *memoSource) PortalsView(region *amoebot.Region, axis amoebot.Axis) (*portal.Portals, *portal.View) {
	if region != m.region {
		return nil, nil
	}
	return m.ports[axis], m.views[axis]
}

// requireRepeatable calls a public forest step twice on the same inputs:
// the first call must leave every input forest deep-equal to a clone
// taken before it, and the second must answer an equal forest with equal
// rounds and beeps.
func requireRepeatable(t *testing.T, label string, inputs []*amoebot.Forest, call func(*sim.Clock) *amoebot.Forest) {
	t.Helper()
	before := make([]*amoebot.Forest, len(inputs))
	for i, f := range inputs {
		before[i] = f.Clone()
	}
	var c1, c2 sim.Clock
	first := call(&c1)
	for i := range inputs {
		if !reflect.DeepEqual(inputs[i], before[i]) {
			t.Fatalf("%s: input forest %d changed", label, i)
		}
	}
	second := call(&c2)
	if !reflect.DeepEqual(first, second) || c1.Rounds() != c2.Rounds() || c1.Beeps() != c2.Beeps() {
		t.Fatalf("%s: second call differs (%d/%d rounds, %d/%d beeps)",
			label, c1.Rounds(), c2.Rounds(), c1.Beeps(), c2.Beeps())
	}
}

// TestPublicForestStepsAreNonDestructive guards the aliasing that the
// in-place internals make possible: PropagateEnv on both sides of every
// x-portal, MergeEnv on pairs of SPT forests (an empty side included) and
// SPTEnv on a memoized whole region and on a fresh sub-region leave their
// inputs as they found them (for SPTEnv, the memoized decompositions), and
// answer a repeated call identically.
func TestPublicForestStepsAreNonDestructive(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	for trial := 0; trial < 10; trial++ {
		s := shapes.RandomBlob(rng, 30+rng.Intn(150))
		whole := amoebot.WholeRegion(s)
		memo := newMemoSource(whole)
		env := NewEnv(testEnv().Exec(), memo)

		ports := portal.Compute(whole, amoebot.AxisX)
		for id := 0; id < ports.Len(); id++ {
			for _, into := range []amoebot.Side{amoebot.SideA, amoebot.SideB} {
				region, pnodes, _, f, ok := propagateSetup(t, rng, s, id, 1+rng.Intn(3), into)
				if !ok {
					continue
				}
				requireRepeatable(t, fmt.Sprintf("trial %d: PropagateEnv portal %d side %d", trial, id, into),
					[]*amoebot.Forest{f}, func(c *sim.Clock) *amoebot.Forest {
						return PropagateEnv(env, c, region, pnodes, f, into)
					})
			}
		}

		f1 := SPTEnv(env, new(sim.Clock), whole, int32(rng.Intn(s.N())), whole.Nodes())
		f2 := SPTEnv(env, new(sim.Clock), whole, int32(rng.Intn(s.N())), whole.Nodes())
		empty := amoebot.NewForest(s)
		for i, pair := range [][2]*amoebot.Forest{{f1, f2}, {f2, f1}, {f1, empty}, {empty, f2}, {empty, empty}} {
			requireRepeatable(t, fmt.Sprintf("trial %d: MergeEnv pair %d", trial, i),
				pair[:], func(c *sim.Clock) *amoebot.Forest {
					return MergeEnv(env, c, pair[0], pair[1])
				})
		}

		var ids [amoebot.NumAxes][]int32
		for axis, p := range memo.ports {
			ids[axis] = slices.Clone(p.ID)
		}
		sub := ballRegion(s, int32(rng.Intn(s.N())), 1+rng.Intn(5))
		for _, region := range []*amoebot.Region{whole, sub} {
			src := region.Nodes()[rng.Intn(region.Len())]
			requireRepeatable(t, fmt.Sprintf("trial %d: SPTEnv on %d amoebots", trial, region.Len()),
				nil, func(c *sim.Clock) *amoebot.Forest {
					return SPTEnv(env, c, region, src, region.Nodes())
				})
		}
		for axis, p := range memo.ports {
			if !slices.Equal(p.ID, ids[axis]) {
				t.Fatalf("trial %d: SPTEnv changed the memoized axis-%d decomposition", trial, axis)
			}
		}
	}
}

// ballRegion returns the connected region of the amoebots within
// hop distance radius of center.
func ballRegion(s *amoebot.Structure, center int32, radius int) *amoebot.Region {
	dist := map[int32]int{center: 0}
	for queue := []int32{center}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for d := amoebot.Direction(0); d < amoebot.NumDirections && dist[u] < radius; d++ {
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
